"""CSV loading, correlation screening, and bootstrap efficiency."""

import json
import os

import numpy as np
import pytest

from steinrule import (
    DataError,
    EstimatorDef,
    HFunction,
    UndefinedCorrelationError,
    bootstrap_efficiency,
    correlation_table,
    load_csv,
    point_estimates,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cigarette.csv")


@pytest.fixture(scope="module")
def brands():
    return load_csv(FIXTURE)


@pytest.fixture(scope="module")
def smoke_model(brands):
    return brands.select(response="co", covariates=["tar", "nicotine", "weight"])


class TestLoadCsv:
    def test_fixture_shape(self, brands):
        assert brands.n == 25
        assert brands.numeric_names == ["tar", "nicotine", "weight", "co"]
        assert brands.labels["brand"][0] == "Alpine"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_bad_cell_reports_position(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="column 'b'"):
            load_csv(p)

    def test_missing_value_reports_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(p)

    def test_duplicate_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_select_validates_names(self, brands):
        with pytest.raises(DataError):
            brands.select(response="bogus", covariates=["tar"])
        with pytest.raises(DataError):
            brands.select(response="co", covariates=["tar", "bogus"])
        with pytest.raises(DataError):
            brands.select(response="co", covariates=["tar", "co"])

    def test_design_has_intercept(self, smoke_model):
        X, y = smoke_model.design()
        assert X.shape == (25, 4)
        np.testing.assert_array_equal(X[:, 0], 1.0)
        assert y.shape == (25,)


class TestCorrelationTable:
    def test_reference_values(self, brands):
        tab = correlation_table(brands)
        ref_r = {("tar", "nicotine"): 0.9766, ("tar", "weight"): 0.4908,
                 ("tar", "co"): 0.9575, ("nicotine", "weight"): 0.5002,
                 ("nicotine", "co"): 0.9259, ("weight", "co"): 0.4640}
        ref_p = {("tar", "nicotine"): 0.0000, ("tar", "weight"): 0.0127,
                 ("tar", "co"): 0.0000, ("nicotine", "weight"): 0.0109,
                 ("nicotine", "co"): 0.0000, ("weight", "co"): 0.0195}
        for (a, b), r in ref_r.items():
            i, j = tab.names.index(a), tab.names.index(b)
            assert tab.r[i, j] == pytest.approx(r, abs=0.5e-4), (a, b)
            assert tab.r[j, i] == pytest.approx(tab.r[i, j], rel=1e-12)
            assert tab.p[i, j] == pytest.approx(ref_p[a, b], abs=5e-4), (a, b)

    def test_diagonal(self, brands):
        tab = correlation_table(brands)
        np.testing.assert_array_equal(np.diag(tab.r), 1.0)
        np.testing.assert_array_equal(np.diag(tab.p), 0.0)

    def test_subset_of_names(self, brands):
        tab = correlation_table(brands, names=["tar", "co"])
        assert tab.names == ["tar", "co"]
        assert tab.r.shape == (2, 2)

    def test_constant_column_rejected(self, tmp_path):
        p = tmp_path / "k.csv"
        p.write_text("a,b\n1,1\n2,1\n3,1\n4,1\n")
        with pytest.raises(UndefinedCorrelationError):
            correlation_table(load_csv(p))

    def test_needs_three_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError):
            correlation_table(load_csv(p))

    def test_str_contains_names(self, brands):
        text = str(correlation_table(brands))
        assert "nicotine" in text and "0.9766" in text


class TestPointEstimates:
    def test_ls_matches_normal_equations(self, smoke_model):
        X, y = smoke_model.design()
        expect = np.linalg.solve(X.T @ X, X.T @ y)
        got = point_estimates(smoke_model)["ls"]
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_reference_coefficients(self, smoke_model):
        pts = point_estimates(smoke_model)
        np.testing.assert_allclose(
            pts["ls"], [3.2022, 0.9626, -2.6317, -0.1305], atol=0.01)
        np.testing.assert_allclose(
            pts["spsl"], [3.9325, 0.9645, -1.3262, 0.8983], atol=0.05)

    def test_spsl_matches_direct_formula(self, smoke_model):
        # recompute the shrink from raw pieces: both fits, the residual
        # variance, and the trace gap
        X, y = smoke_model.design()
        G = np.linalg.inv(X.T @ X)
        bh = G @ X.T @ y
        d = np.diag(X.T @ X)
        bt = (X.T @ y) / d
        s2 = ((y - X @ bh) @ (y - X @ bh)) / (25 - 4)
        a_hat = s2 * np.trace(G) - s2 * np.sum(1.0 / d)
        diff = bh - bt
        expect = bh - (a_hat / (diff @ diff)) * diff
        np.testing.assert_allclose(
            point_estimates(smoke_model)["spsl"], expect, rtol=1e-10)

    def test_zero_weight_returns_ls(self, smoke_model):
        pts = point_estimates(
            smoke_model, spec=EstimatorDef("flat", HFunction.zero(), 0.0))
        np.testing.assert_array_equal(pts["flat"], pts["ls"])

    def test_requires_selected_columns(self, brands):
        with pytest.raises(DataError):
            point_estimates(brands)


class TestBootstrapEfficiency:
    def test_reference_run(self, smoke_model):
        rep = bootstrap_efficiency(smoke_model, B=1_000, seed=0)
        assert rep.relative_efficiency["ls"] == 1.0
        assert rep.efficiency_se["ls"] == 0.0
        spsl_eff = rep.relative_efficiency["spsl"]
        assert spsl_eff < 1.0
        assert rep.efficiency_se["spsl"] > 0.0
        assert rep.bootstrap_replications == 1_000

    def test_deterministic(self, smoke_model):
        a = bootstrap_efficiency(smoke_model, B=300, seed=4)
        b = bootstrap_efficiency(smoke_model, B=300, seed=4)
        assert a.relative_efficiency == b.relative_efficiency

    def test_seed_sensitivity_within_noise(self, smoke_model):
        a = bootstrap_efficiency(smoke_model, B=1_000, seed=1)
        b = bootstrap_efficiency(smoke_model, B=1_000, seed=2)
        gap = abs(a.relative_efficiency["spsl"] - b.relative_efficiency["spsl"])
        spread = a.efficiency_se["spsl"] + b.efficiency_se["spsl"]
        assert gap < 4 * spread

    def test_b_floor(self, smoke_model):
        with pytest.raises(ValueError):
            bootstrap_efficiency(smoke_model, B=50, seed=0)

    def test_reserved_name(self, smoke_model):
        with pytest.raises(ValueError):
            bootstrap_efficiency(
                smoke_model,
                specs=[EstimatorDef("ls", HFunction.inverse_sq_norm(), None)],
                B=200, seed=0)

    def test_json_export(self, smoke_model):
        rep = bootstrap_efficiency(smoke_model, B=200, seed=0)
        doc = json.loads(rep.to_json())
        assert set(doc) >= {"point_estimates", "relative_efficiency",
                            "efficiency_se", "B", "seed"}
        assert doc["B"] == 200

    def test_json_reports_redraws(self, tmp_path):
        # a dummy column set in one row of eight: resamples that miss the
        # row lose rank and are redrawn, and the report must say how often
        path = tmp_path / "sparse.csv"
        rows = ["y,x,d"] + [f"{0.3 * i + (i % 3)},{i},{int(i == 0)}"
                            for i in range(8)]
        path.write_text("\n".join(rows) + "\n")
        data = load_csv(path).select("y", ["x", "d"])
        rep = bootstrap_efficiency(data, B=200, seed=0)
        doc = json.loads(rep.to_json())
        assert rep.redraws > 0
        assert doc["redraws"] == rep.redraws

    def test_str_report(self, smoke_model):
        text = str(bootstrap_efficiency(smoke_model, B=200, seed=0))
        assert "spsl" in text and "ls" in text
