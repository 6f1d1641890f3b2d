"""End-to-end runs of the command line entry point, in process, and one
run of the module as a script."""

import json
import os
import subprocess
import sys

import pytest

from steinrule import _rng
from steinrule.analysis import load_csv
from steinrule.cli import main
from steinrule.risk_bounds import bound_suite, default_bound_suite, restricted_instance

DATA = os.path.join(os.path.dirname(__file__), "data", "cigarette.csv")

NAN, INF = float("nan"), float("inf")

ANALYZE_ARGS = ["analyze", "--data", DATA, "--response", "co",
                "--covariates", "tar,nicotine,weight"]


def record_draws(monkeypatch):
    """Record every call for normals or uniforms from here on."""
    calls = []
    for name in ("normals", "uniforms"):
        draw = getattr(_rng, name)

        def recorded(*args, _draw=draw, **kwargs):
            calls.append(args)
            return _draw(*args, **kwargs)
        monkeypatch.setattr(_rng, name, recorded)
    return calls


def small_config(tmp_path, **overrides):
    doc = {"n": 15, "k": 3, "sigma": 0.5, "rho": 0.6,
           "beta_norms": [1.2, 4.8], "replications": 400, "seed": 11}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSeed:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_is_one_error(self, seed, tmp_path, capsys):
        commands = [
            ["verify-bounds", "--samples", "100", "--seed", seed],
            ANALYZE_ARGS + ["--seed", seed],
            ["simulate", "--config", str(small_config(tmp_path, seed=int(seed))),
             "--out", str(tmp_path / "rows.csv")],
        ]
        for argv in commands:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == (f"error: seed must be an integer in "
                                    f"[0, 2**64), got {seed}\n"), argv
            assert captured.out == ""
        assert not (tmp_path / "rows.csv").exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", [
        [], ["simulate"], ["verify-bounds"], ["analyze"], ["estimate"]])
    def test_help_exits_zero(self, cmd, capsys):
        assert main(cmd + ["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2


class TestSimulate:
    def test_sweep_to_csv(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("cell_id,")
        assert len(lines) == 1 + 2  # two cells, one estimator
        assert (tmp_path / "rows.csv.meta.json").exists()

    def test_repeat_is_byte_identical(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(a)])
        main(["simulate", "--config", str(cfg), "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = small_config(tmp_path, rho=1.5)
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ({"distribution": {"kind": "gamma-mixture"}}, "'nu'"),
        ({"estimators": [{"name": "s", "h": {"kind": "smooth-inverse"}}]}, "'p'"),
        ({"estimators": ["spsl"]}, "estimator"),
        ({"distribution": [1]}, "distribution"),
        ({"replications": 200.5}, "replications"),
        ({"beta_norms": 3}, "beta_norms"),
        ({"gamma_norms": 3}, "gamma_norms"),
        ({"estimators": 5}, "estimators"),
        ({"sigma": "a"}, "sigma"),
        ({"rho": "x"}, "rho"),
        ({"beta_norms": [NAN, 1.0]}, "beta_norms"),
        ({"beta_norms": [INF]}, "beta_norms"),
        ({"gamma_norms": [NAN]}, "gamma_norms"),
        ({"gamma_norms": []}, "gamma_norms"),
        ({"competitor": {"Rmat": [[1, 0, 0]], "r": [INF]},
          "gamma_norms": [1.0]}, "restriction r"),
        ({"competitor": {"Rmat": [[1, None, 0]], "r": [0]},
          "gamma_norms": [1.0]}, "restriction Rmat"),
        ({"competitor": {"Rmat": [[1, 0]], "r": [0]},
          "gamma_norms": [1.0]}, "competitor"),
        ({"distribution": {"kind": "gamma-mixture", "nu": NAN}}, "'nu'"),
        ({"distribution": {"kind": "two-point-mixture", "z1": INF, "z2": 1.0,
                           "w": 0.5}}, "'z1'"),
        ({"estimators": [{"name": "a", "c": [1]}]}, "estimator 'a' c"),
        ({"estimators": [{"name": "a", "c": "abc"}]}, "estimator 'a' c"),
        ({"estimators": [{"name": "a", "c": True}]}, "estimator 'a' c"),
        ({"estimators": [{"name": "a", "c": NAN}]}, "estimator 'a' c"),
        ({"estimators": [{"name": 5}]}, "name"),
        ({"estimators": [{"h": "zero", "c": 0}]}, "name"),
        ({"estimators": [{"name": "a"}, {"name": "a", "h": "zero"}]}, "'a'"),
        ({"competitor": {"Rmat": {"a": 1}, "r": [0]}}, "restriction Rmat entry"),
        ({"competitor": {"Rmat": [[1, 0, 0]], "r": {"a": 1}}},
         "restriction r entry"),
        ({"competitor": {"Rmat": [[1, 0, 0]], "r": True}}, "restriction r entry"),
        ({"competitor": {"Rmat": [[True, False, False]], "r": [0]}},
         "restriction Rmat entry"),
        ({"competitor": {"Rmat": [["1", 0, 0]], "r": [0]}},
         "restriction Rmat entry"),
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys,
                                                override, key):
        cfg = small_config(tmp_path, **override)
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", ["5", "null", '"abc"', "[1, 2]"])
    def test_non_object_document_is_a_config_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(doc)
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config must be a JSON object, got ")
        assert "Traceback" not in err


class TestVerifyBounds:
    def test_default_instances_hold(self, capsys):
        assert main(["verify-bounds", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "all bounds hold" in out
        assert "[identity]" in out and "[biased]" in out

    def test_prints_the_suite_gaussian_reports(self, capsys):
        assert main(["verify-bounds", "--samples", "20000", "--elliptical", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        suite = default_bound_suite(count=20_000, seed=0)
        # the two Gaussian instances lead the suite, each with 9 reports
        gaussian = suite[:18]
        assert any("smooth-inverse-2" in r.name for r in gaussian)
        for r in gaussian:
            label = r.name.split("[")[1].split("/")[0].rstrip("]")
            assert f"[{label}] {r}" in lines
        # then the Dirac and the gamma-mixture elliptical sections, 3 each
        gamma = suite[21:24]
        assert all(r.name.endswith("[biased/gamma-nu5]") for r in gamma)
        for r in gamma:
            assert f"[elliptical] {r}" in lines

    @pytest.mark.parametrize("samples", ["0", "1", "-5"])
    def test_too_few_samples_is_an_error(self, samples, capsys):
        assert main(["verify-bounds", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "error: need at least 2 draws" in captured.err
        assert "BOUND VIOLATION" not in captured.out

    def test_module_runs_as_a_script(self):
        # without a __main__ guard, python -m printed nothing and exited 0
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), os.pardir, "src"))
        run = subprocess.run(
            [sys.executable, "-m", "steinrule.cli", "verify-bounds",
             "--samples", "2000"],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1:] == ["all bounds hold"]

    def test_divergent_dimension_refused(self, capsys):
        assert main(["verify-bounds", "--k", "2"]) == 2
        assert "divergent" in capsys.readouterr().err

    def test_singular_section(self, capsys):
        code = main(["verify-bounds", "--k", "4", "--samples", "20000",
                     "--singular", "3"])
        assert code == 0
        assert "[singular]" in capsys.readouterr().out

    def test_singular_rank_out_of_range(self, capsys):
        assert main(["verify-bounds", "--singular", "9"]) == 2

    def test_singular_with_too_many_coefficients_refused(self, capsys, monkeypatch):
        drawn = record_draws(monkeypatch)
        assert main(["verify-bounds", "--k", "25", "--singular", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: the restricted instance needs integers "
                                "1 <= q <= k < 25, got k=25, q=3\n")
        assert captured.out == ""
        assert drawn == []

    @pytest.mark.parametrize("extra, message", [
        (["--elliptical", "2"], "gamma mixing needs a finite nu > 2, got 2.0"),
        (["--elliptical", "nan"], "gamma mixing needs a finite nu > 2, got nan"),
        (["--k", "2", "--allow-divergent", "--elliptical", "5"],
         "inverse norm moment needs factor dimension >= 3, got q=2"),
        (["--elliptical", "1e20"], "gamma mixing is tabulated for nu <= 20000, "
         "got 1e+20; use the Gaussian law (dirac-at-one) past it"),
        (["--elliptical", "1e100"], "gamma mixing is tabulated for nu <= 20000, "
         "got 1e+100; use the Gaussian law (dirac-at-one) past it"),
    ])
    def test_elliptical_refused_before_drawing(self, extra, message, capsys,
                                               monkeypatch):
        drawn = record_draws(monkeypatch)
        assert main(["verify-bounds", "--samples", "2000000"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert drawn == []

    @pytest.mark.parametrize("extra", [[], ["--allow-divergent"]])
    def test_nonpositive_dimension_refused(self, extra, capsys):
        assert main(["verify-bounds", "--k", "0"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: the dimension k must be an integer of "
                                "at least 1, got 0\n")
        assert captured.out == ""

    def test_nonfinite_nu_is_an_error(self, capsys):
        assert main(["verify-bounds", "--samples", "2000",
                     "--elliptical", "nan"]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and "nu" in captured.err
        assert "BOUND VIOLATION" not in captured.out

    def test_elliptical_section(self, capsys):
        code = main(["verify-bounds", "--samples", "20000",
                     "--elliptical", "5"])
        assert code == 0
        assert "[elliptical]" in capsys.readouterr().out


class TestOneMessagePerFailure:
    """A refused input prints the library's own message, nothing else."""

    @pytest.mark.parametrize("argv, call", [
        (["verify-bounds", "--k", "0"], lambda: bound_suite(100_000, 0, k=0)),
        (["verify-bounds", "--k", "0", "--allow-divergent"],
         lambda: bound_suite(100_000, 0, k=0)),
        (["verify-bounds", "--k", "-1"], lambda: bound_suite(100_000, 0, k=-1)),
        (["verify-bounds", "--k", "-1", "--allow-divergent"],
         lambda: bound_suite(100_000, 0, k=-1)),
        (["verify-bounds", "--singular", "9"], lambda: restricted_instance(3, 9)),
        (["verify-bounds", "--k", "25", "--singular", "3"],
         lambda: restricted_instance(25, 3)),
        (["analyze", "--data", DATA, "--response", "co", "--covariates", " , "],
         lambda: load_csv(DATA).select("co", [])),
        (["estimate", "--data", DATA, "--response", "co", "--covariates", " , "],
         lambda: load_csv(DATA).select("co", [])),
    ], ids=["k0", "k0-divergent", "k-1", "k-1-divergent", "singular9",
            "k25-singular3", "analyze-no-covariates", "estimate-no-covariates"])
    def test_cli_prints_the_library_message(self, argv, call, capsys, monkeypatch):
        with pytest.raises(ValueError) as info:
            call()
        drawn = record_draws(monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {info.value}\n")
        assert drawn == []


class TestAnalyze:
    def test_full_report(self, capsys):
        code = main(ANALYZE_ARGS + ["--bootstrap", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "correlations:" in out
        assert "0.9766" in out
        assert "spsl" in out

    def test_low_bootstrap_notes_wide_se(self, capsys):
        assert main(ANALYZE_ARGS + ["--bootstrap", "100"]) == 0
        assert "wide bootstrap standard errors" in capsys.readouterr().out

    def test_refused_bootstrap_prints_nothing(self, capsys):
        assert main(ANALYZE_ARGS + ["--bootstrap", "99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 100 replications" in captured.err

    def test_json_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(ANALYZE_ARGS + ["--bootstrap", "200", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["relative_efficiency"]["ls"] == 1.0
        assert doc["relative_efficiency"]["spsl"] < 1.0

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(ANALYZE_ARGS + ["--bootstrap", "200", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2]")

    def test_unknown_column(self, capsys):
        code = main(["analyze", "--data", DATA, "--response", "co",
                     "--covariates", "tar,bogus", "--bootstrap", "200"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
    def test_nonfinite_cell_is_refused(self, cell, tmp_path, capsys):
        # a non-finite cell in a column the model does not use still
        # poisons the correlation table, so the file is refused whole
        lines = open(DATA).read().splitlines()
        fields = lines[3].split(",")
        fields[3] = cell
        lines[3] = ",".join(fields)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--data", str(path), "--response", "co",
                     "--covariates", "tar,nicotine", "--bootstrap", "200"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"non-finite cell {cell!r} at row 4, column 'weight'"
                in captured.err)

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["analyze", "--data", str(tmp_path / "no.csv"),
                     "--response", "co", "--covariates", "tar"])
        assert code == 2


class TestEstimate:
    def run(self, capsys, *extra):
        code = main(["estimate", "--data", DATA, "--response", "co",
                     "--covariates", "tar,nicotine,weight", *extra])
        assert code == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.strip().splitlines():
            name, _, rest = line.partition(": ")
            rows[name] = [float(v) for v in rest.split()]
        return rows

    def test_auto_weight_is_data_driven(self, capsys):
        rows = self.run(capsys)
        assert rows["ls"] == pytest.approx(
            [3.2022, 0.9626, -2.6317, -0.1305], abs=0.01)
        assert rows["estimate"] == pytest.approx(
            [3.9325, 0.9645, -1.3262, 0.8983], abs=0.05)

    def test_zero_weight_equals_ls(self, capsys):
        rows = self.run(capsys, "--h", "zero", "--c", "0")
        assert rows["estimate"] == rows["ls"]

    def test_explicit_zero_multiplier(self, capsys):
        rows = self.run(capsys, "--c", "0")
        assert rows["estimate"] == rows["ls"]

    def test_smooth_inverse_runs(self, capsys):
        rows = self.run(capsys, "--h", "smooth-inverse", "--p", "3")
        assert rows["estimate"] != rows["ls"]

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_nonfinite_exponent_is_an_error(self, p, capsys):
        code = main(["estimate", "--data", DATA, "--response", "co",
                     "--covariates", "tar", "--h", "smooth-inverse", "--p", p])
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and "p >= 2" in captured.err
        assert captured.out == ""

    def test_reads_a_byte_order_mark(self, tmp_path, capsys):
        # an Excel "CSV UTF-8" file: a byte-order mark before the header,
        # whose first column is the response
        with open(DATA) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        path = tmp_path / "bom.csv"
        path.write_text("".join(",".join(row[-1:] + row[:-1]) + "\n"
                                for row in rows), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfco,")
        args = ["--response", "co", "--covariates", "tar,nicotine,weight"]
        assert main(["estimate", "--data", str(path), *args]) == 0
        moved = capsys.readouterr().out
        assert main(["estimate", "--data", DATA, *args]) == 0
        assert moved == capsys.readouterr().out

    def test_bad_multiplier(self, capsys):
        code = main(["estimate", "--data", DATA, "--response", "co",
                     "--covariates", "tar", "--c", "lots"])
        assert code == 2
