"""Sweep configuration, design generation, and the relative-risk engine."""

import json
import multiprocessing
import re
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from steinrule import (
    Competitor,
    ConfigError,
    DegenerateDifferenceWarning,
    EllipticalSpec,
    EstimatorDef,
    HFunction,
    LinearRestriction,
    RestrictionError,
    SimConfig,
    SweepResult,
    apply_rule,
    gamma_sweep,
    generate_design,
    make_beta,
    run_sweep,
    spsl,
)
from steinrule import _rng, simulation


def base_config(**overrides):
    kwargs = dict(n=15, k=3, sigma=0.5, rho=0.6, beta_norms=(1.2, 4.8),
                  replications=500, seed=7)
    kwargs.update(overrides)
    return SimConfig(**kwargs)


class TestGenerateDesign:
    def test_shape_and_intercept(self):
        X = generate_design(20, 4, 0.3, 0)
        assert X.shape == (20, 4)
        np.testing.assert_array_equal(X[:, 0], 1.0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            generate_design(15, 3, 0.6, 5), generate_design(15, 3, 0.6, 5))

    def test_zero_rho_gives_uncorrelated_columns(self):
        X = generate_design(20_000, 4, 0.0, 1)
        corr = np.corrcoef(X[:, 1:].T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 3.0 / np.sqrt(20_000)

    def test_rho_shows_up_in_sample_correlation(self):
        X = generate_design(20_000, 3, 0.6, 2)
        corr = np.corrcoef(X[:, 1], X[:, 2])[0, 1]
        assert corr == pytest.approx(0.6, abs=0.03)

    def test_column_location(self):
        X = generate_design(50_000, 3, 0.0, 3)
        assert X[:, 1:].mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rho_raises(self):
        with pytest.raises(ConfigError):
            generate_design(10, 4, -0.9, 0)

    @pytest.mark.parametrize("rho", [-0.5, 1.0])
    def test_singular_equicorrelation_is_refused_by_name(self, rho):
        with pytest.raises(ConfigError, match=(
                f"equicorrelation with rho={rho} is not positive definite for k=4")):
            generate_design(10, 4, rho, 0)

    # k = 6, rho = -0.25 is singular in exact arithmetic, and 1 - 2**-53
    # leaves a smallest eigenvalue of 1.1e-16, below RANK_TOL times the largest
    @pytest.mark.parametrize("k, rho", [(6, -0.25), (6, 1.0 - 2.0**-53),
                                        (9, 1.0 - 2.0**-53)])
    def test_edge_equicorrelation_is_refused_by_one_rule(self, k, rho):
        message = f"equicorrelation with rho={rho} is not positive definite for k={k}"
        with pytest.raises(ConfigError, match=message):
            generate_design(50, k, rho, 0)
        with pytest.raises(ConfigError, match=message):
            base_config(n=50, k=k, rho=rho)

    # smallest eigenvalues 1e-6 and 4e-6
    @pytest.mark.parametrize("rho", [0.999999, -0.249999])
    def test_near_edge_equicorrelation_is_accepted(self, rho):
        X = generate_design(50, 6, rho, 0)
        assert np.isfinite(X).all()
        assert base_config(n=50, k=6, rho=rho).rho == rho

    def test_needs_a_slope_column(self):
        with pytest.raises(ConfigError):
            generate_design(10, 1, 0.0, 0)


class TestMakeBeta:
    def test_squared_norm_hits_target(self):
        for k, t in ((3, 1.2), (4, 29.7)):
            beta = make_beta(k, t)
            assert beta @ beta == pytest.approx(t, rel=1e-12)
            assert np.all(beta == beta[0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_beta(3, 0.0)

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_rejects_non_finite(self, target):
        with pytest.raises(ConfigError,
                           match=f"^need a finite positive target norm, got {target}$"):
            make_beta(3, target)


class TestSimConfig:
    def test_defaults(self):
        cfg = base_config()
        assert cfg.competitor == "diag"
        assert cfg.distribution.kind == "dirac-at-one"
        assert [e.name for e in cfg.estimators] == ["spsl"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            base_config(n=3, k=3)
        with pytest.raises(ConfigError):
            base_config(replications=50)
        with pytest.raises(ConfigError):
            base_config(rho=1.2)
        with pytest.raises(ConfigError):
            base_config(sigma=0.0)
        with pytest.raises(ConfigError):
            base_config(beta_norms=())

    def test_rho_lower_guard_scales_with_k(self):
        # equicorrelation stays positive semidefinite only above -1/(k-2)
        base_config(k=4, n=25, rho=-0.4)
        with pytest.raises(ConfigError):
            base_config(k=4, n=25, rho=-0.6)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_the_key_range(self, seed):
        # refused at construction, not later by the stream layer
        with pytest.raises(ConfigError, match=r"seed must be an integer in "
                                              r"\[0, 2\*\*64\)"):
            base_config(seed=seed)

    def test_from_json_key_messages(self):
        doc = base_config().to_json_dict()
        doc["typo"], doc["other"] = 1, 2
        with pytest.raises(ConfigError,
                           match=r"^unknown config keys: \['other', 'typo'\]$"):
            SimConfig.from_json(doc)
        doc = base_config().to_json_dict()
        del doc["seed"], doc["n"], doc["estimators"]
        with pytest.raises(ConfigError,
                           match=r"^missing config keys: \['n', 'seed'\]$"):
            SimConfig.from_json(doc)

    def test_json_round_trip(self):
        cfg = base_config(estimators=(
            spsl(), EstimatorDef("fixed", HFunction.smooth_inverse(2.0), -0.3)))
        again = SimConfig.from_json(cfg.to_json_dict())
        assert again.to_json_dict() == cfg.to_json_dict()

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        cfg = base_config(n=np.int64(15), k=np.int64(3), replications=np.int64(500),
                          seed=np.int64(7), sigma=np.float32(0.5), rho=np.float32(0.6))
        assert [type(getattr(cfg, key)) for key in
                ("n", "k", "replications", "seed", "sigma", "rho")] == [int] * 4 + [float] * 2
        out = tmp_path / "sweep.csv"
        run_sweep(cfg).to_csv(out)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert SimConfig.from_json(meta["config"]).to_json_dict() == cfg.to_json_dict()

    @pytest.mark.parametrize("written, spec, encoded", [
        ("dirac-at-one", EllipticalSpec.dirac(), "dirac-at-one"),
        (None, EllipticalSpec.dirac(), "dirac-at-one"),
        ({"kind": "dirac-at-one"}, EllipticalSpec.dirac(), "dirac-at-one"),
        ({"kind": "gamma-mixture", "nu": 5}, EllipticalSpec.gamma_mixture(5.0),
         {"kind": "gamma-mixture", "nu": 5.0}),
        ({"kind": "two-point-mixture", "z1": 0.5, "z2": 2, "w": 0.25},
         EllipticalSpec.two_point(0.5, 2.0, 0.25),
         {"kind": "two-point-mixture", "z1": 0.5, "z2": 2.0, "w": 0.25}),
    ], ids=["dirac-name", "null", "dirac-object", "gamma", "two-point"])
    def test_json_round_trip_mixing_law(self, written, spec, encoded):
        doc = base_config().to_json_dict()
        doc["distribution"] = written
        cfg = SimConfig.from_json(doc)
        assert cfg.distribution == spec
        assert cfg.to_json_dict()["distribution"] == encoded
        assert SimConfig.from_json(cfg.to_json_dict()).distribution == spec

    @pytest.mark.parametrize("c", [-0.3, "auto"])
    @pytest.mark.parametrize("written, h", [
        ("zero", HFunction.zero()),
        ("one", HFunction.one()),
        ("inverse-sq-norm", HFunction.inverse_sq_norm()),
        ({"kind": "smooth-inverse", "p": 3.0}, HFunction.smooth_inverse(3.0)),
    ], ids=["zero", "one", "inverse-sq-norm", "smooth-inverse"])
    def test_json_round_trip_weight(self, written, h, c):
        doc = base_config().to_json_dict()
        doc["estimators"] = [{"name": "e", "h": written, "c": c}]
        cfg = SimConfig.from_json(doc)
        est = EstimatorDef("e", h, None if c == "auto" else c)
        assert cfg.estimators == (est,)
        assert cfg.to_json_dict()["estimators"] == doc["estimators"]
        assert SimConfig.from_json(cfg.to_json_dict()).estimators == (est,)

    @pytest.mark.parametrize("override, label, reason", [
        ({"distribution": {"kind": "gamma-mixture", "nu": 1.5}},
         "distribution 'gamma-mixture'",
         "gamma mixing needs a finite nu > 2, got 1.5"),
        ({"distribution": {"kind": "two-point-mixture", "z1": 0.5, "z2": 2.0,
                           "w": 1.5}},
         "distribution 'two-point-mixture'", "weight must lie in (0, 1), got 1.5"),
        ({"estimators": [{"name": "s", "h": {"kind": "smooth-inverse", "p": 1}}]},
         "weight 'smooth-inverse'", "smooth inverse needs a finite p >= 2, got 1.0"),
        ({"k": 4, "competitor": {"Rmat": [[]], "r": [0]}},
         "competitor", "restriction needs at least one nonempty row"),
        ({"competitor": {"Rmat": [[1, 0, 0], [2, 0, 0]], "r": [0, 0]}},
         "competitor", "restriction rows are linearly dependent (rank 1 of 2)"),
        ({"distribution": {"kind": "gamma-mixture", "nu": 1e20}},
         "distribution 'gamma-mixture'",
         "gamma mixing is tabulated for nu <= 20000, got 1e+20; "
         "use the Gaussian law (dirac-at-one) past it"),
        ({"distribution": {"kind": "gamma-mixture", "nu": 1e100}},
         "distribution 'gamma-mixture'",
         "gamma mixing is tabulated for nu <= 20000, got 1e+100; "
         "use the Gaussian law (dirac-at-one) past it"),
    ], ids=["nu", "w", "p", "Rmat", "dependent-rows", "nu-1e20", "nu-1e100"])
    def test_constructor_refusal_is_a_config_error(self, override, label, reason):
        # the key is named and the constructor's reason kept, whatever
        # ValueError subclass the constructor raised
        doc = base_config().to_json_dict()
        doc.update(override)
        with pytest.raises(ConfigError) as info:
            SimConfig.from_json(doc)
        message = str(info.value)
        assert message.startswith(f"{label}: ") and reason in message

    @pytest.mark.parametrize("override, message", [
        ({"distribution": "gamma-mixture"},
         "distribution 'gamma-mixture' takes the keys ['nu']"),
        ({"distribution": "two-point-mixture"},
         "distribution 'two-point-mixture' takes the keys ['z1', 'z2', 'w']"),
        ({"estimators": [{"name": "s", "h": "smooth-inverse"}]},
         "weight 'smooth-inverse' takes the keys ['p']"),
    ], ids=["gamma", "two-point", "smooth-inverse"])
    def test_bare_kind_with_keys_says_to_write_an_object(self, override, message):
        # the kind exists, so "unknown distribution 'gamma-mixture'" was wrong
        doc = base_config().to_json_dict()
        doc.update(override)
        with pytest.raises(ConfigError) as info:
            SimConfig.from_json(doc)
        assert str(info.value) == (
            f"{message}, so it must be written as an object with 'kind'")

    @pytest.mark.parametrize("override, message", [
        ({"distribution": {"kind": "cauchy"}}, "unknown distribution kind 'cauchy'"),
        ({"distribution": "cauchy"}, "unknown distribution kind 'cauchy'"),
        ({"competitor": [1, 2]}, "competitor must be 'diag' or {Rmat, r}, got [1, 2]"),
    ], ids=["kind-object", "kind-name", "competitor-list"])
    def test_from_json_names_the_refused_value(self, override, message):
        doc = base_config().to_json_dict()
        doc.update(override)
        with pytest.raises(ConfigError) as info:
            SimConfig.from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("override, message", [
        ({"distribution": {"kind": "gamma-mixture", "nu": 5, "w": 0.3, "typo": 1}},
         "unknown distribution 'gamma-mixture' keys: ['typo', 'w']"),
        ({"estimators": [{"name": "s", "h": {"kind": "smooth-inverse", "p": 3,
                                             "nu": 1}}]},
         "unknown weight 'smooth-inverse' keys: ['nu']"),
        ({"estimators": [{"name": "s", "h": "inverse-sq-norm", "cc": 1}]},
         "unknown estimator keys: ['cc']"),
        ({"competitor": {"Rmat": [[1, 0, 0]], "r": [0], "x": 1}},
         "unknown competitor keys: ['x']"),
        ({"distribution": {"kind": "two-point-mixture", "z1": 0.5, "z2": 2.0}},
         "missing distribution 'two-point-mixture' keys: ['w']"),
        ({"estimators": [{"name": "s", "h": {"kind": "smooth-inverse"}}]},
         "missing weight 'smooth-inverse' keys: ['p']"),
        ({"estimators": [{"h": "inverse-sq-norm", "c": -0.5}]},
         "missing estimator keys: ['name']"),
        ({"competitor": {"Rmat": [[1, 0, 0]]}}, "missing competitor keys: ['r']"),
    ], ids=["distribution", "weight", "estimator", "competitor",
            "distribution-missing", "weight-missing", "estimator-missing",
            "competitor-missing"])
    def test_every_object_refuses_unknown_or_missing_keys(self, override, message):
        # only the top level refused them: a misspelt "c" ran the estimator
        # with c = "auto", and {"nu": 5, "w": 0.3} decoded to gamma nu = 5
        doc = base_config().to_json_dict()
        doc.update(override)
        with pytest.raises(ConfigError) as info:
            SimConfig.from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", [None, 3, ""])
    def test_estimator_name_refusal_names_the_estimator(self, name):
        doc = base_config().to_json_dict()
        doc["estimators"] = [{"name": name, "h": "inverse-sq-norm"}]
        with pytest.raises(ConfigError) as info:
            SimConfig.from_json(doc)
        assert str(info.value) == (
            f"estimator {name!r}: name must be a nonempty string, got {name!r}")

    def test_estimator_names_must_be_distinct(self):
        with pytest.raises(ConfigError,
                           match=r"^estimator names must be distinct, got \['a', 'a'\]$"):
            base_config(estimators=(spsl("a"), spsl("a")))

    @pytest.mark.parametrize("spec", ["spsl", HFunction.inverse_sq_norm()],
                             ids=["name", "weight"])
    def test_estimator_that_is_not_a_def_is_refused(self, spec):
        with pytest.raises(ConfigError, match=re.escape(
                f"an estimator must be an EstimatorDef, got {spec!r}")):
            base_config(estimators=(spsl(), spec))

    def test_unknown_competitor_name(self):
        with pytest.raises(ConfigError, match="^unknown competitor 'ridge'$"):
            base_config(competitor="ridge")

    def test_from_json_rejects_unknown_keys(self):
        doc = base_config().to_json_dict()
        doc["typo"] = 1
        with pytest.raises(ConfigError):
            SimConfig.from_json(doc)

    def test_from_json_parses_competitor_matrix(self):
        doc = base_config(k=3, n=15).to_json_dict()
        doc["competitor"] = {"Rmat": [[1.0, 0.0, 0.0]], "r": [0.5]}
        cfg = SimConfig.from_json(doc)
        assert isinstance(cfg.competitor, LinearRestriction)
        assert cfg.competitor.q == 1

    def test_from_json_auto_c(self):
        doc = base_config().to_json_dict()
        doc["estimators"] = [{"name": "s", "h": "inverse-sq-norm", "c": "auto"}]
        cfg = SimConfig.from_json(doc)
        assert cfg.estimators[0].c is None


class TestRunSweep:
    @pytest.mark.parametrize("key", ["n", "k", "replications"])
    def test_numpy_integer_config_matches_int(self, key):
        cfg = base_config()
        again = base_config(**{key: np.int64(getattr(cfg, key))})
        assert run_sweep(again).rows == run_sweep(cfg).rows

    def test_row_grid(self):
        cfg = base_config(estimators=(spsl(), EstimatorDef("base", HFunction.zero(), 0.0)))
        res = run_sweep(cfg)
        assert len(res.rows) == 4
        assert [r.beta_norm for r in res.rows] == [1.2, 1.2, 4.8, 4.8]
        for row in res.rows:
            assert row.replications == 500 and row.n == 15

    def test_zero_weight_is_exactly_the_base(self):
        cfg = base_config(estimators=(EstimatorDef("base", HFunction.zero(), 0.0),))
        for row in run_sweep(cfg).rows:
            assert row.rmse == 1.0
            assert row.rmse_se == 0.0

    def test_deterministic_rows(self):
        cfg = base_config()
        a, b = run_sweep(cfg), run_sweep(cfg)
        assert a.rows == b.rows

    def test_standard_error_scales_with_replications(self):
        small = run_sweep(base_config(replications=2_000, seed=11))
        large = run_sweep(base_config(replications=8_000, seed=11))
        for s, l in zip(small.rows, large.rows):
            assert 0.25 < l.rmse_se / s.rmse_se < 0.85

    def test_shrinkage_beats_base_at_low_signal(self):
        res = run_sweep(base_config(replications=5_000, seed=71))
        assert res.rows[0].rmse < 1.0

    def test_csv_contract(self, tmp_path):
        cfg = base_config()
        res = run_sweep(cfg)
        out = tmp_path / "sweep.csv"
        res.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("cell_id,n,k,sigma,rho,beta_norm,gamma_norm,"
                            "estimator,rmse,rmse_se,replications,seed")
        assert len(lines) == 1 + len(res.rows)
        first = lines[1].split(",")
        assert float(first[8]) == pytest.approx(res.rows[0].rmse, rel=1e-11)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert "config" in meta and "conventions" in meta

    def test_csv_bytes_deterministic(self, tmp_path):
        cfg = base_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg).to_csv(p1)
        run_sweep(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_series_filters_by_estimator(self):
        cfg = base_config(estimators=(spsl(), EstimatorDef("base", HFunction.zero(), 0.0)))
        res = run_sweep(cfg)
        rows = res.series("base")
        assert [r.beta_norm for r in rows] == [1.2, 4.8]
        assert [r.rmse for r in rows] == [1.0, 1.0]

    def test_elliptical_noise_runs(self):
        from steinrule import EllipticalSpec
        cfg = base_config(distribution=EllipticalSpec.gamma_mixture(5.0),
                          replications=2_000)
        res = run_sweep(cfg)
        assert all(np.isfinite(r.rmse) for r in res.rows)

    def test_weight_bug_is_not_a_config_error(self, monkeypatch):
        def broken(self, sq_norms):
            raise TypeError("bug in weight")

        monkeypatch.setattr(HFunction, "_values_from", broken)
        cfg = base_config(estimators=(
            EstimatorDef("broken", HFunction.smooth_inverse(2.0), 0.5),))
        with pytest.raises(TypeError, match="bug in weight"):
            run_sweep(cfg)

    @pytest.mark.parametrize("sweep", [run_sweep, gamma_sweep],
                             ids=["run_sweep", "gamma_sweep"])
    def test_singular_restriction_is_a_config_error(self, sweep):
        # unreachable through validated inputs, so degrade the restriction
        # matrix after construction; both sweeps name the cell it failed in
        restriction = LinearRestriction(np.eye(1, 3), np.zeros(1))
        restriction.Rmat = np.zeros((1, 3))
        config = base_config(competitor=restriction, beta_norms=(1.0,),
                             gamma_norms=(1.0,))
        with pytest.raises(ConfigError, match="cell 0 failed") as info:
            sweep(config)
        assert isinstance(info.value.__cause__, RestrictionError)
        assert "singular" in str(info.value)


class TestGammaSweep:
    @staticmethod
    def _restricted_config(**overrides):
        beta = make_beta(4, 4.8)
        R = np.eye(3, 4)
        restriction = LinearRestriction(R, R @ beta)
        kwargs = dict(n=25, k=4, sigma=1.0, rho=0.3, beta_norms=(4.8,),
                      replications=2_000, seed=13, competitor=restriction)
        kwargs.update(overrides)
        return SimConfig(**kwargs)

    def test_requires_restricted_competitor(self):
        with pytest.raises(ConfigError):
            gamma_sweep(base_config(gamma_norms=(0.0, 1.0)))

    @pytest.mark.parametrize("overrides, message", [
        ({}, "no gamma_norms given"),
        ({"gamma_norms": (0.0, 1.0), "beta_norms": (1.2, 4.8)},
         "gamma sweep uses a single beta norm"),
    ], ids=["no-gamma-norms", "two-beta-norms"])
    def test_refuses_a_config_it_cannot_sweep(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            gamma_sweep(self._restricted_config(**overrides))

    def test_projects_once_per_cell(self, monkeypatch):
        # the cell moves its competitor's offset, so J is projected once
        # and no restriction is built per cell
        from steinrule import core_model
        cfg = self._restricted_config(gamma_norms=(0.0, 1.0, 5.0),
                                      replications=100)
        calls = {"projections": 0, "restrictions": 0}

        def counting(original, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return wrapper

        project = counting(core_model.restriction_projection, "projections")
        monkeypatch.setattr(core_model, "restriction_projection", project)
        monkeypatch.setattr(simulation, "restriction_projection", project,
                            raising=False)
        monkeypatch.setattr(LinearRestriction, "__init__", counting(
            LinearRestriction.__init__, "restrictions"))
        assert len(gamma_sweep(cfg).rows) == 3
        assert calls == {"projections": 3, "restrictions": 0}

    def test_realized_bias_matches_targets(self):
        cfg = self._restricted_config(gamma_norms=(0.0, 1.0, 5.0))
        res = gamma_sweep(cfg)
        realized = [row.gamma_norm for row in res.rows]
        np.testing.assert_allclose(realized, [0.0, 1.0, 5.0], atol=1e-9)

    def test_zero_weight_stays_at_one(self):
        cfg = self._restricted_config(
            estimators=(EstimatorDef("base", HFunction.zero(), 0.0),),
            gamma_norms=(0.0, 2.0))
        for row in gamma_sweep(cfg).rows:
            assert row.rmse == 1.0 and row.rmse_se == 0.0

    def test_fixed_weight_dominates_at_zero_bias(self):
        # inside-the-interval shrink toward a correct restriction wins
        cfg = self._restricted_config(
            estimators=(EstimatorDef(
                "fixed", HFunction.inverse_sq_norm(), -0.07),),
            replications=20_000, gamma_norms=(0.0,))
        row = gamma_sweep(cfg).rows[0]
        assert row.rmse < 1.0 - 2 * row.rmse_se

    def test_large_bias_washes_out_shrinkage(self):
        cfg = self._restricted_config(replications=4_000, gamma_norms=(200.0,))
        row = gamma_sweep(cfg).rows[0]
        assert row.rmse == pytest.approx(1.0, abs=max(0.01, 4 * row.rmse_se))


class TestRelativeMse:
    def test_matches_exact_rationals(self):
        # e within about 1e-6 of b: the naive e - ratio b cancels about ten
        # digits, the pooled (b, e - b) co-moments must not
        rng = np.random.default_rng(61)
        b = rng.uniform(0.5, 2.0, size=301)
        e = b * (1.0 + 1e-6 * rng.uniform(0.0, 2.0, size=b.size))
        rows = np.stack([b, e - b, b - b])
        cuts = [0, 2, 3, 97, 250, b.size]
        parts = [_rng.moments(rows[:, lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]
        (_, ratio, se), same = simulation.relative_mse(
            [EstimatorDef("near", HFunction.zero()),
             EstimatorDef("same", HFunction.zero())], parts)
        assert same == ("same", 1.0, 0.0)

        n = b.size
        bq, eq = [Fraction(v) for v in b], [Fraction(v) for v in e]
        exact_ratio = sum(eq) / sum(bq)
        dev = [x - exact_ratio * y for x, y in zip(eq, bq)]
        centre = sum(dev) / n
        var = sum((v - centre) ** 2 for v in dev) / (n - 1)
        exact_se = np.sqrt(float(var / n / (sum(bq) / n) ** 2))
        assert ratio == pytest.approx(float(exact_ratio), rel=1e-13, abs=0.0)
        assert se == pytest.approx(exact_se, rel=1e-13, abs=0.0)


class TestLosses:
    K = 4

    def test_matches_exact_rationals(self):
        # e within about 1e-6 of b: e - b formed from the fitted estimate
        # cancels about six digits, the closed-form gap must not
        rng = np.random.default_rng(67)
        dev = rng.uniform(0.5, 2.0, size=(301, self.K))
        diff = rng.uniform(0.5, 2.0, size=(301, self.K))
        sq = np.einsum("ij,ij->i", diff, diff)
        a_hat = 1e-6 * sq * rng.uniform(0.5, 2.0, size=301)
        out = simulation._losses(
            [EstimatorDef("one", HFunction.one(), 1e-6), spsl()], dev, diff, a_hat)
        for i in range(0, 301, 7):
            d, e = [Fraction(x) for x in dev[i]], [Fraction(y) for y in diff[i]]
            b = sum(x * x for x in d)
            cross = 2 * sum(x * y for x, y in zip(d, e))
            sq_exact = sum(y * y for y in e)
            for row, w in ((1, Fraction(1e-6)), (2, -Fraction(a_hat[i]) / sq_exact)):
                gap = w * (cross + w * sq_exact)
                assert abs(gap) < 1e-5 * b
                assert out[row, i] == pytest.approx(float(gap), rel=1e-13, abs=0.0)
            assert out[0, i] == pytest.approx(float(b), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("est", [
        spsl(), EstimatorDef("fixed", HFunction.inverse_sq_norm(), -0.3),
        EstimatorDef("one", HFunction.one(), -0.5),
        EstimatorDef("zero", HFunction.zero(), 0.0),
        EstimatorDef("s3", HFunction.smooth_inverse(3.0)),
        EstimatorDef("s4-fixed", HFunction.smooth_inverse(4.0), 0.8),
    ], ids=lambda est: est.name)
    def test_matches_the_fitted_rule(self, est):
        # the reference: the rule's fit base + w diff by apply_rule, then
        # its squared loss less the base's
        rng = np.random.default_rng(71)
        truth, beta_hat, beta_tilde = (rng.normal(size=(200, self.K))
                                       for _ in range(3))
        a_hat = rng.uniform(0.1, 1.0, size=200)
        dev, diff = beta_hat - truth, beta_hat - beta_tilde
        base = np.einsum("ij,ij->i", dev, dev)
        fitted = apply_rule(beta_hat, beta_tilde, est.h, est.multiplier(a_hat)) - truth
        out = simulation._losses([est], dev, diff, a_hat)
        assert np.array_equal(out[0], base)
        np.testing.assert_allclose(
            out[1], np.einsum("ij,ij->i", fitted, fitted) - base, rtol=1e-12, atol=1e-13)
        if est.h.kind == "zero":
            assert not out[1].any()

    def test_degenerate_rows_give_zero_with_one_warning_per_estimator(self):
        rng = np.random.default_rng(73)
        dev = rng.normal(size=(40, self.K))
        diff = rng.normal(size=(40, self.K))
        diff[::3] = 0.0
        diff[1::3] *= 1e-15
        ests = TestStreamedCell.ESTIMATORS
        with pytest.warns(DegenerateDifferenceWarning) as record:
            for _ in range(2):
                out = simulation._losses(ests, dev, diff, rng.uniform(0.1, 1.0, 40))
        assert len(record) == 2 * len(ests)
        assert all(str(w.message).startswith("27 degenerate") for w in record)
        assert (out[1:, 0::3] == 0.0).all() and (out[1:, 1::3] == 0.0).all()
        assert out[1:-1, 2::3].all()


class TestErrorScale:
    # n = 8, k = 4, |beta|^2 = 1: the base error U1 is of order sigma and
    # was rounded away in (beta + U1) - beta when sigma << |beta|
    ESTIMATORS = (spsl(), EstimatorDef("zero", HFunction.zero(), 0.0))

    @classmethod
    def _rows(cls, sigma, beta_norm):
        return run_sweep(SimConfig(n=8, k=4, sigma=sigma, rho=0.2,
                                   beta_norms=(beta_norm,), replications=200,
                                   seed=1, estimators=cls.ESTIMATORS)).rows

    def test_tiny_sigma_gives_finite_rows(self):
        # formed as (beta + U1) - beta, every row here read NaN
        spsl_row, zero_row = self._rows(1e-20, 1.0)
        assert np.isfinite([spsl_row.rmse, spsl_row.rmse_se]).all()
        assert (zero_row.rmse, zero_row.rmse_se) == (1.0, 0.0)

    def test_equivalent_cells_agree(self):
        # (sigma, beta) -> (t sigma, t beta) leaves every ratio unchanged
        rows = [self._rows(sigma, beta_norm)[0] for sigma, beta_norm in
                ((1e-7, 1.0), (1.0, 1e14), (1e-5, 1e4))]
        for row in rows[1:]:
            assert row.rmse == pytest.approx(rows[0].rmse, rel=0.0, abs=1e-15)
            assert row.rmse_se == pytest.approx(rows[0].rmse_se, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma, beta_norm", [(1e80, 1e-160), (1e120, 1e-240),
                                                  (1e150, 1e-300), (1e-100, 1e200)])
    def test_extreme_sigma_agrees_with_its_unit_cell(self, sigma, beta_norm):
        # the loss co-moments, of order sigma^4, overflowed to a NaN standard
        # error from sigma = 1e80 on and underflowed to 0 at sigma = 1e-100
        (row, zero_row), (unit, _) = self._rows(sigma, 1.0), self._rows(1.0, beta_norm)
        assert row.rmse == pytest.approx(unit.rmse, rel=0.0, abs=1e-15)
        assert row.rmse_se == pytest.approx(unit.rmse_se, rel=1e-12, abs=0.0)
        assert (zero_row.rmse, zero_row.rmse_se) == (1.0, 0.0)

    @pytest.mark.parametrize("sigma", [1e154, 1e200])
    def test_overflowing_sigma_is_refused(self, sigma):
        # losses of order sigma^2 overflow here: the cell once gave NaN rows
        with pytest.raises(ConfigError, match=re.escape(
                f"cell 0 failed: its losses, of order sigma^2, overflow at "
                f"sigma={sigma}")), np.errstate(over="ignore", invalid="ignore"):
            self._rows(sigma, 1.0)


class TestStreamedCell:
    # a replication draws N = 12 noise values, so CHUNK_ELEMS = 12 * rows
    # gives chunks of `rows` replications
    N = 12
    ESTIMATORS = (spsl(), EstimatorDef("s4", HFunction.smooth_inverse(4.0)),
                  EstimatorDef("fixed", HFunction.inverse_sq_norm(), -0.05),
                  EstimatorDef("zero", HFunction.zero()))

    @classmethod
    def _sweeps(cls, reps):
        """Rows of one cell per competitor and error law."""
        beta = make_beta(4, 2.0)
        R = np.eye(2, 4)
        common = dict(n=cls.N, k=4, sigma=0.7, rho=0.4, replications=reps,
                      estimators=cls.ESTIMATORS)
        rows = []
        for seed, law in enumerate((EllipticalSpec.dirac(),
                                    EllipticalSpec.gamma_mixture(5.0))):
            rows += run_sweep(SimConfig(beta_norms=(3.0,), seed=31 + seed,
                                        distribution=law, **common)).rows
            rows += gamma_sweep(SimConfig(
                beta_norms=(2.0,), seed=41 + seed, distribution=law,
                competitor=LinearRestriction(R, R @ beta),
                gamma_norms=(0.0 if seed == 0 else 1.5,), **common)).rows
        return [vars(row) for row in rows]

    @pytest.mark.parametrize("reps", [100, 985, 3001])
    def test_rows_do_not_depend_on_the_chunking(self, monkeypatch, reps):
        widths = []
        normals = _rng.normals

        def recorded(seed, count, dim, **kwargs):
            if dim == self.N:
                widths.append(count)
            return normals(seed, count, dim, **kwargs)

        monkeypatch.setattr(_rng, "normals", recorded)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", reps * self.N)
        whole = self._sweeps(reps)
        assert widths == [reps] * 4
        # at one row per chunk the cell still draws two or three: one-row
        # batches would take BLAS's matrix-vector kernel and move the bits
        for rows in (1, 2, 7, 100):
            monkeypatch.setattr(_rng, "CHUNK_ELEMS", rows * self.N)
            for threads in (1, 2):
                widths.clear()
                monkeypatch.setattr(_rng, "_worker_count", lambda: threads)
                assert self._sweeps(reps) == whole, (rows, threads)
                # each cell is split unless it fits one chunk, and no chunk
                # holds a single replication
                assert (len(widths) > 4) == (rows < reps)
                assert sum(widths) == 4 * reps
                assert 2 <= min(widths) and max(widths) <= max(rows, 3)

    def test_warning_from_a_pooled_chunk_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", 50 * self.N)
        # a competitor with J = 0 reproduces the base and leaves every
        # difference degenerate, so every estimator warns in every chunk
        init = Competitor.__init__

        def reproducing(self, *args):
            init(self, *args)
            self.J = np.zeros_like(self.J)

        monkeypatch.setattr(Competitor, "__init__", reproducing)
        rule_weights, threads = simulation.rule_weights, set()

        def recorded(*args):
            threads.add(threading.current_thread())
            time.sleep(0.001)   # lets the helper thread take chunks
            return rule_weights(*args)

        monkeypatch.setattr(simulation, "rule_weights", recorded)
        cfg = SimConfig(n=self.N, k=4, sigma=0.7, rho=0.4, beta_norms=(3.0,),
                        replications=500, seed=31, estimators=self.ESTIMATORS)
        with pytest.warns(DegenerateDifferenceWarning) as record:
            run_sweep(cfg)
        assert len(threads) == 2
        assert len(record) == len(list(_rng.chunks(500, self.N))) * len(self.ESTIMATORS)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_reproduces_the_rows(self, monkeypatch):
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", 50 * self.N)
        rows = self._sweeps(500)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(self._sweeps(500)))
        with warnings.catch_warnings():
            # on Python 3.12+ os.fork warns when the parent runs other OS
            # threads, OpenBLAS's among them
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            # a child that waited on a thread of its parent's would hang
            assert recv.poll(60), "the forked child sent no rows"
            assert recv.recv() == rows
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert child.exitcode == 0

    @pytest.mark.parametrize("n, reps", [(50, 100_000), (2_000, 2_000)])
    def test_memory_flat_in_replications(self, monkeypatch, n, reps):
        # a cell drawn at once peaked at 170 MB (n = 50, 100 000
        # replications) and 128 MB (a 2000-row design, 2000 replications);
        # streamed, what grows is one loss per replication and estimator.
        # A cell holds one chunk per thread, so the thread count is fixed
        # for the bound to mean the same on every host
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        cfg = SimConfig(n=n, k=6, sigma=1.0, rho=0.5, beta_norms=(1.0,),
                        replications=reps, seed=0,
                        distribution=EllipticalSpec.gamma_mixture(5.0),
                        estimators=self.ESTIMATORS[:2] + self.ESTIMATORS[3:])
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"
