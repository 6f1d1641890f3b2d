"""End-to-end runs of the command line entry point, in process."""

import json
import os

import pytest

from steinrule import _rng
from steinrule.cli import main
from steinrule.risk_bounds import default_bound_suite

DATA = os.path.join(os.path.dirname(__file__), "data", "cigarette.csv")

NAN, INF = float("nan"), float("inf")

ANALYZE_ARGS = ["analyze", "--data", DATA, "--response", "co",
                "--covariates", "tar,nicotine,weight"]


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
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys,
                                                override, key):
        cfg = small_config(tmp_path, **override)
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and key in err


class TestVerifyBounds:
    def test_default_instances_hold(self, capsys):
        assert main(["verify-bounds", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "all bounds hold" in out
        assert "[identity]" in out and "[biased]" in out

    def test_prints_the_suite_gaussian_reports(self, capsys):
        assert main(["verify-bounds", "--samples", "20000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the two Gaussian instances lead the suite, each with 9 reports
        gaussian = default_bound_suite(count=20_000, seed=0)[:18]
        assert any("smooth-inverse-2" in r.name for r in gaussian)
        for r in gaussian:
            label = r.name.split("[")[1].split("/")[0].rstrip("]")
            assert f"[{label}] {r}" in lines

    @pytest.mark.parametrize("samples", ["0", "1", "-5"])
    def test_too_few_samples_is_an_error(self, samples, capsys):
        assert main(["verify-bounds", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "error: need at least 2 draws" in captured.err
        assert "BOUND VIOLATION" not in captured.out

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

    @staticmethod
    def _record_normals(monkeypatch):
        calls = []
        normals = _rng.normals

        def recorded(*args, **kwargs):
            calls.append(args)
            return normals(*args, **kwargs)
        monkeypatch.setattr(_rng, "normals", recorded)
        return calls

    def test_singular_with_too_many_coefficients_refused(self, capsys, monkeypatch):
        drawn = self._record_normals(monkeypatch)
        assert main(["verify-bounds", "--k", "25", "--singular", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --singular needs --k below 25, "
                                "the restricted instance's row count\n")
        assert captured.out == ""
        assert drawn == []

    @pytest.mark.parametrize("extra, message", [
        (["--elliptical", "2"], "gamma mixing needs a finite nu > 2, got 2.0"),
        (["--elliptical", "nan"], "gamma mixing needs a finite nu > 2, got nan"),
        (["--k", "2", "--allow-divergent", "--elliptical", "5"],
         "inverse norm moment needs factor dimension >= 3, got q=2"),
    ])
    def test_elliptical_refused_before_drawing(self, extra, message, capsys,
                                               monkeypatch):
        drawn = self._record_normals(monkeypatch)
        assert main(["verify-bounds", "--samples", "2000000"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert drawn == []

    @pytest.mark.parametrize("extra", [[], ["--allow-divergent"]])
    def test_nonpositive_dimension_refused(self, extra, capsys):
        assert main(["verify-bounds", "--k", "0"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --k must be at least 1\n"
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

    def test_unknown_column(self, capsys):
        code = main(["analyze", "--data", DATA, "--response", "co",
                     "--covariates", "tar,bogus", "--bootstrap", "200"])
        assert code == 2
        assert "error" in capsys.readouterr().err

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

    def test_bad_multiplier(self, capsys):
        code = main(["estimate", "--data", DATA, "--response", "co",
                     "--covariates", "tar", "--c", "lots"])
        assert code == 2
