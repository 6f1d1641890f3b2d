"""Sweep configuration, design generation, and the relative-risk engine."""

import json

import numpy as np
import pytest

from steinrule import (
    ConfigError,
    EstimatorDef,
    HFunction,
    LinearRestriction,
    RestrictionError,
    SimConfig,
    SweepResult,
    gamma_sweep,
    generate_design,
    make_beta,
    run_sweep,
    spsl,
)


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

    def test_json_round_trip(self):
        cfg = base_config(estimators=(
            spsl(), EstimatorDef("fixed", HFunction.smooth_inverse(2.0), -0.3)))
        again = SimConfig.from_json(cfg.to_json_dict())
        assert again.to_json_dict() == cfg.to_json_dict()

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

    def test_weight_bug_is_not_a_config_error(self):
        def broken(x, y):
            raise TypeError("bug in weight")

        cfg = base_config(estimators=(
            EstimatorDef("broken", HFunction.custom(broken, q0=1.0), 0.5),))
        with pytest.raises(TypeError, match="bug in weight"):
            run_sweep(cfg)

    def test_singular_restriction_is_a_config_error(self):
        restriction = LinearRestriction(np.eye(1, 3), np.zeros(1))
        restriction.Rmat = np.zeros((1, 3))
        with pytest.raises(ConfigError, match="cell 0 failed") as info:
            run_sweep(base_config(competitor=restriction))
        assert isinstance(info.value.__cause__, RestrictionError)


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
            gamma_sweep(base_config(), gamma_norms=(0.0, 1.0))

    def test_realized_bias_matches_targets(self):
        cfg = self._restricted_config()
        res = gamma_sweep(cfg, gamma_norms=(0.0, 1.0, 5.0))
        realized = [row.gamma_norm for row in res.rows]
        np.testing.assert_allclose(realized, [0.0, 1.0, 5.0], atol=1e-9)

    def test_zero_weight_stays_at_one(self):
        cfg = self._restricted_config(
            estimators=(EstimatorDef("base", HFunction.zero(), 0.0),))
        for row in gamma_sweep(cfg, gamma_norms=(0.0, 2.0)).rows:
            assert row.rmse == 1.0 and row.rmse_se == 0.0

    def test_fixed_weight_dominates_at_zero_bias(self):
        # inside-the-interval shrink toward a correct restriction wins
        cfg = self._restricted_config(
            estimators=(EstimatorDef(
                "fixed", HFunction.inverse_sq_norm(), -0.07),),
            replications=20_000)
        row = gamma_sweep(cfg, gamma_norms=(0.0,)).rows[0]
        assert row.rmse < 1.0 - 2 * row.rmse_se

    def test_large_bias_washes_out_shrinkage(self):
        cfg = self._restricted_config(replications=4_000)
        row = gamma_sweep(cfg, gamma_norms=(200.0,)).rows[0]
        assert row.rmse == pytest.approx(1.0, abs=max(0.01, 4 * row.rmse_se))
