"""Weight functions, the combination rule, and the shrink-weight optimum."""

import re

import numpy as np
import pytest

from steinrule import (
    Competitor,
    DegenerateDifferenceWarning,
    EstimatorDef,
    HFunction,
    InvalidRiskMomentError,
    LinearModel,
    LinearRestriction,
    apply_rule,
    dominance_interval,
    fit_ols,
    optimal_c,
    plug_in_gap,
    spsl,
)
from steinrule.core_model import restriction_projection


def weights(h, a, b):
    """h on rows of estimate pairs (a, b), from the squared norms of a - b."""
    diff = np.atleast_2d(a - b)
    return h._values_from(np.einsum("ij,ij->i", diff, diff))


class TestHFunction:
    def test_inverse_sq_norm_value(self):
        h = HFunction.inverse_sq_norm()
        x, y = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        assert weights(h, x, y)[0] == pytest.approx(1 / 25)
        assert h.q0 == 1.0

    def test_smooth_inverse_value(self):
        h = HFunction.smooth_inverse(2.0)
        assert weights(h, np.array([2.0]), np.array([0.0]))[0] == pytest.approx(1 / 5)

    def test_smooth_inverse_rejects_low_power(self):
        with pytest.raises(ValueError):
            HFunction.smooth_inverse(1.5)

    def test_zero_and_one(self):
        x = np.array([1.0, 2.0])
        assert weights(HFunction.zero(), x, -x)[0] == 0.0
        assert weights(HFunction.one(), x, -x)[0] == 1.0
        assert HFunction.zero().q0 == 0.0
        assert np.isinf(HFunction.one().q0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        for h in (HFunction.inverse_sq_norm(), HFunction.smooth_inverse(4.0)):
            batch = apply_rule(a, b, h, 0.7)
            for i in range(10):
                assert batch[i] == pytest.approx(apply_rule(a[i], b[i], h, 0.7)[0])

    def test_smooth_q0_matches_grid_supremum(self):
        # q0 is sup over s > 0 of s / (1 + s^(p/2)) times the norm factor:
        # compare the stored constant with a brute-force scan of
        # h(d) * ||d||^2 over difference norms
        norms = np.exp(np.linspace(-12.0, 12.0, 200_001))
        for p in (2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 40.0):
            h = HFunction.smooth_inverse(p)
            ratio = norms ** 2 / (1.0 + norms ** p)
            assert ratio.max() <= h.q0 * (1 + 1e-12)
            assert h.q0 == pytest.approx(ratio.max(), rel=1e-6)
        for p, expect in ((2.0, 1.0), (4.0, 0.5)):
            assert HFunction.smooth_inverse(p).q0 == pytest.approx(expect, rel=1e-9)

    def test_weight_norm_product_capped_by_q0(self):
        rng = np.random.default_rng(1)
        for h in (HFunction.inverse_sq_norm(), HFunction.smooth_inverse(2.0),
                  HFunction.smooth_inverse(6.0)):
            a = rng.normal(size=(100_000, 3)) * rng.lognormal(size=(100_000, 1))
            b = rng.normal(size=(100_000, 3))
            sq = ((a - b) ** 2).sum(axis=1)
            prod = weights(h, a, b) * sq
            assert prod.max() <= h.q0 * (1 + 1e-12)
        # the inverse-square-norm weight sits at its cap
        h = HFunction.inverse_sq_norm()
        np.testing.assert_allclose(weights(h, a, b) * sq, 1.0, rtol=1e-12)


class TestApplyRule:
    def test_zero_weight_returns_base(self):
        bh, bt = np.array([2.0, 1.0]), np.array([0.0, 0.0])
        out = apply_rule(bh, bt, HFunction.zero(), 5.0)[0]
        np.testing.assert_array_equal(out, bh)

    def test_unit_weight_full_negative_step_gives_competitor(self):
        bh, bt = np.array([2.0, 1.0]), np.array([-1.0, 3.0])
        out = apply_rule(bh, bt, HFunction.one(), -1.0)[0]
        np.testing.assert_allclose(out, bt)

    def test_inverse_sq_norm_moves_along_difference(self):
        bh = np.array([2.0, 0.0, 0.0])
        bt = np.zeros(3)
        h = HFunction.inverse_sq_norm()
        np.testing.assert_allclose(apply_rule(bh, bt, h, 1.0)[0], [2.5, 0, 0])
        np.testing.assert_allclose(apply_rule(bh, bt, h, -1.0)[0], [1.5, 0, 0])

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        a, b, shift = rng.normal(size=(3, 4))
        h = HFunction.inverse_sq_norm()
        moved = apply_rule(a + shift, b + shift, h, 0.7)[0]
        np.testing.assert_allclose(moved, apply_rule(a, b, h, 0.7)[0] + shift)

    def test_per_row_coefficients(self):
        a = np.array([[2.0, 0.0], [4.0, 0.0]])
        b = np.zeros((2, 2))
        out = apply_rule(a, b, HFunction.one(), np.array([-0.5, -1.0]))
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_degenerate_difference_warns_and_returns_base(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = a.copy()
        b[1] += 1.0  # only row 0 degenerates
        with pytest.warns(DegenerateDifferenceWarning):
            out = apply_rule(a, b, HFunction.inverse_sq_norm(), 1.0)
        np.testing.assert_array_equal(out[0], a[0])

    def test_combine_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        h = HFunction.smooth_inverse(2.0)
        batch = apply_rule(a, b, h, -0.4)
        for i in range(7):
            np.testing.assert_allclose(batch[i], apply_rule(a[i], b[i], h, -0.4)[0])


class TestEstimatorDef:
    def test_fixed_coefficient(self):
        d = EstimatorDef("fixed", HFunction.inverse_sq_norm(), -0.5)
        assert d.c == -0.5 and d.name == "fixed"

    def test_data_driven_marker(self):
        assert spsl().c is None
        assert spsl("other").name == "other"

    def test_spec_rejects_nonfinite_c(self):
        with pytest.raises(ValueError):
            EstimatorDef("bad", HFunction.one(), np.inf)

    @pytest.mark.parametrize("c", [True, [1], 1 + 2j, "abc"])
    def test_spec_rejects_c_that_is_not_a_real_number(self, c):
        with pytest.raises(ValueError, match="^c must be a finite real number"):
            EstimatorDef("bad", HFunction.one(), c)

    @pytest.mark.parametrize("name", [None, 3, ""])
    def test_spec_rejects_a_name_that_is_not_a_nonempty_string(self, name):
        with pytest.raises(ValueError, match=re.escape(
                f"name must be a nonempty string, got {name!r}")):
            EstimatorDef(name, HFunction.one())

    def test_multiplier(self):
        a_hat = np.array([0.3, -1.5])
        np.testing.assert_array_equal(spsl().multiplier(a_hat), -a_hat)
        fixed = EstimatorDef("fixed", HFunction.inverse_sq_norm(), -0.5)
        assert fixed.multiplier(a_hat) == -0.5


class TestPlugInGap:
    def test_orthonormal_design_counts_coordinates(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(20, 3)))
        beta = np.zeros(3)
        rng = np.random.default_rng(6)
        y = q @ beta + rng.normal(size=20)
        model = LinearModel(q, y, 1.0)
        resid = y - q @ fit_ols(model)
        s2 = resid @ resid / (20 - 3)
        # X'X = I so the trace gap is k minus the competitor trace, here 0
        trace_gap = np.trace(np.linalg.inv(q.T @ q))
        assert plug_in_gap(resid, 20 - 3, trace_gap) == pytest.approx(3 * s2)

    def test_trace_formula(self):
        # a_hat = S^2 trace((X'X)^-1) - trace(competitor covariance), with
        # covariance S^2 D^-1 for the diagonal competitor and
        # S^2 (G - J Rmat G) for the restricted one
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(25), 1 + rng.normal(size=(25, 3))])
        y = rng.normal(size=25)
        model = LinearModel(X, y, 1.0)
        resid = y - X @ fit_ols(model)
        s2 = resid @ resid / (25 - 4)
        G = np.linalg.inv(X.T @ X)
        d = np.diag(X.T @ X)
        expect = s2 * np.trace(G) - np.trace(s2 * np.diag(1.0 / d))
        got = plug_in_gap(resid, 25 - 4, np.trace(G) - np.sum(1.0 / d))
        assert got == pytest.approx(expect, rel=1e-10)
        got = plug_in_gap(resid, 25 - 4, Competitor(X.T @ X).trace_gap)
        assert got == pytest.approx(expect, rel=1e-10)
        Rmat = np.eye(2, 4)
        restriction = LinearRestriction(Rmat, np.zeros(2))
        J = restriction_projection(X.T @ X, restriction)
        expect = s2 * np.trace(G) - np.trace(s2 * (G - J @ Rmat @ G))
        got = plug_in_gap(resid, 25 - 4, np.trace(J @ Rmat @ G))
        assert got == pytest.approx(expect, rel=1e-10)
        got = plug_in_gap(resid, 25 - 4, Competitor(X.T @ X, restriction).trace_gap)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_rows_equal_single_calls(self):
        # the sweep passes (reps, n) residual rows, the bootstrap one
        # residual vector per replicate; both must give the same gaps
        resid = np.random.default_rng(8).normal(size=(6, 20))
        rows = plug_in_gap(resid, 17, 2.5)
        assert rows.shape == (6,)
        np.testing.assert_array_equal(
            rows, [plug_in_gap(r, 17, 2.5) for r in resid])


class TestOptimalShrink:
    def test_symmetric_moments(self):
        assert optimal_c(0.5, 0.5) == pytest.approx(1.0)
        assert dominance_interval(0.5, 0.5) == (0.0, 2.0)

    def test_zero_cross_moment_empty_interval(self):
        assert optimal_c(0.0, 0.6) == 0.0
        lo, hi = dominance_interval(0.0, 0.6)
        assert lo == hi == 0.0

    def test_negative_cross_moment(self):
        assert optimal_c(-0.3, 0.6) == pytest.approx(-0.5)
        assert dominance_interval(-0.3, 0.6) == (-1.0, 0.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(InvalidRiskMomentError):
            optimal_c(0.5, 0.0)
        with pytest.raises(InvalidRiskMomentError):
            optimal_c(0.5, np.nan)

    @pytest.mark.parametrize("eta_h", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [optimal_c, dominance_interval],
                             ids=["optimal_c", "dominance_interval"])
    def test_rejects_non_finite_eta(self, fn, eta_h):
        # NaN gave c = NaN and the interval (0, 0); inf gave (0, inf)
        with pytest.raises(InvalidRiskMomentError,
                           match=f"^need a finite eta\\(h\\) and a finite positive "
                                 f"omega\\(h\\), got {eta_h} and 1.0$"):
            fn(eta_h, 1.0)
