"""Model container, competing fits, and joint error moments."""

import re

import numpy as np
import pytest

from steinrule import (
    Competitor,
    DegenerateColumnError,
    JointMoments,
    LinearModel,
    LinearRestriction,
    MomentConsistencyError,
    RankDeficientError,
    RestrictionError,
    fit_ols,
    joint_moments_restricted,
    sample_joint_singular,
)
from steinrule import _rng
from steinrule.core_model import psd_eigh, restriction_projection


def random_model(n, k, sigma, seed, beta=None):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), 1.0 + rng.normal(size=(n, k - 1))])
    if beta is None:
        beta = rng.normal(size=k)
    y = X @ beta + sigma * rng.normal(size=n)
    return LinearModel(X, y, sigma), beta


class TestLinearModel:
    def test_fields_and_shapes(self):
        model, _ = random_model(12, 3, 0.5, 0)
        assert model.n == 12 and model.k == 3
        assert model.X.shape == (12, 3) and model.y.shape == (12,)
        assert model.sigma == 0.5

    def test_arrays_are_read_only(self):
        model, _ = random_model(12, 3, 0.5, 0)
        with pytest.raises(ValueError):
            model.X[0, 0] = 7.0

    def test_rejects_a_one_dimensional_design(self):
        with pytest.raises(ValueError, match="^X must be a 2-d array$"):
            LinearModel(np.ones(5), np.ones(5), 1.0)

    def test_rejects_wide_design(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            LinearModel(rng.normal(size=(3, 5)), np.zeros(3), 1.0)

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            LinearModel(rng.normal(size=(8, 2)), np.zeros(7), 1.0)

    def test_rejects_nonfinite(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2))
        y = np.zeros(8)
        y[3] = np.nan
        with pytest.raises(ValueError):
            LinearModel(X, y, 1.0)

    def test_rejects_negative_sigma(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            LinearModel(rng.normal(size=(8, 2)), np.zeros(8), -0.1)

    def test_rejects_rank_deficient_design(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=10)
        X = np.column_stack([col, 2.0 * col])
        with pytest.raises(RankDeficientError):
            LinearModel(X, np.zeros(10), 1.0)


class TestFitOls:
    def test_matches_normal_equations(self):
        model, _ = random_model(40, 4, 1.0, 3)
        # independent route: solve X'X b = X'y directly
        XtX = model.X.T @ model.X
        expect = np.linalg.solve(XtX, model.X.T @ model.y)
        np.testing.assert_allclose(fit_ols(model), expect, rtol=1e-10)

    def test_intercept_only_is_mean(self):
        model = LinearModel(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]), 1.0)
        np.testing.assert_allclose(fit_ols(model), [2.5])

    def test_noiseless_recovers_coefficients(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        beta = np.array([1.0, -2.0, 0.5])
        model = LinearModel(X, X @ beta, 0.0)
        np.testing.assert_allclose(fit_ols(model), beta, atol=1e-10)


class TestFitDiagCompetitor:
    def test_matches_per_column_projections(self):
        model, _ = random_model(25, 4, 1.0, 5)
        expect = np.empty(4)
        for i in range(4):
            col = model.X[:, i]
            expect[i] = (col @ model.y) / (col @ col)
        fitted = Competitor(model.X.T @ model.X).fit(fit_ols(model))
        np.testing.assert_allclose(fitted, expect, rtol=1e-12)

    def test_orthogonal_columns_equal_ols(self):
        # with orthogonal columns the diagonal of X'X is all of X'X
        q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(15, 3)))
        X = q * np.array([2.0, 1.0, 0.5])
        y = np.random.default_rng(7).normal(size=15)
        model = LinearModel(X, y, 1.0)
        np.testing.assert_allclose(
            Competitor(X.T @ X).fit(fit_ols(model)), fit_ols(model), rtol=1e-10)

    def test_ones_column_gets_mean(self):
        model, _ = random_model(30, 3, 1.0, 8)
        fitted = Competitor(model.X.T @ model.X).fit(fit_ols(model))
        assert fitted[0] == pytest.approx(model.y.mean())

    def test_zero_column_raises(self):
        X = np.column_stack([np.ones(6), np.zeros(6)])
        with pytest.raises(DegenerateColumnError):
            Competitor(X.T @ X)


class TestLinearRestriction:
    def test_fields(self):
        r = LinearRestriction(np.eye(2, 3), np.array([1.0, 2.0]))
        assert r.q == 2
        np.testing.assert_array_equal(r.r, [1.0, 2.0])

    def test_rejects_dependent_rows(self):
        R = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
        with pytest.raises(ValueError):
            LinearRestriction(R, np.zeros(2))

    def test_rejects_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearRestriction(np.eye(2, 3), np.zeros(3))

    @pytest.mark.parametrize("Rmat, r, name", [
        ([[1.0, np.nan, 0.0]], [0.0], "Rmat"),
        ([[1.0, 0.0, 0.0]], [np.inf], "r"),
    ])
    def test_rejects_nonfinite(self, Rmat, r, name):
        with pytest.raises(RestrictionError, match=f"restriction {name} must be finite"):
            LinearRestriction(Rmat, r)

    def test_rejects_rmat_of_three_dimensions_by_name(self):
        # Rmat's shape was unpacked into two names, which failed bare
        with pytest.raises(RestrictionError, match=re.escape(
                "Rmat must be 2-d, got shape (1, 1, 2)")):
            LinearRestriction([[[1.0, 0.0]]], [0.0])


class TestFitRestricted:
    def test_orthonormal_design_closed_form(self):
        # X'X = I makes the projection J R explicit: both coordinates move
        # by half the constraint violation
        q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(12, 2)))
        y = np.random.default_rng(10).normal(size=12)
        model = LinearModel(q, y, 1.0)
        restriction = LinearRestriction(np.array([[1.0, 1.0]]), np.array([0.4]))
        beta_hat = fit_ols(model)
        gap = beta_hat.sum() - 0.4
        expect = beta_hat - 0.5 * gap * np.array([1.0, 1.0])
        np.testing.assert_allclose(
            Competitor(q.T @ q, restriction).fit(beta_hat), expect, rtol=1e-10)

    def test_constraint_holds_after_fit(self):
        for seed in range(5):
            model, _ = random_model(20, 4, 1.0, 100 + seed)
            R = np.random.default_rng(seed).normal(size=(2, 4))
            restriction = LinearRestriction(R, np.array([1.0, -0.5]))
            comp = Competitor(model.X.T @ model.X, restriction)
            fitted = comp.fit(fit_ols(model))
            np.testing.assert_allclose(R @ fitted, restriction.r, atol=1e-8)

    def test_satisfied_constraint_changes_nothing(self):
        model, _ = random_model(20, 3, 1.0, 11)
        beta_hat = fit_ols(model)
        R = np.array([[1.0, 2.0, 0.0]])
        restriction = LinearRestriction(R, R @ beta_hat)
        np.testing.assert_allclose(
            Competitor(model.X.T @ model.X, restriction).fit(beta_hat), beta_hat,
            atol=1e-10)

    def test_dimension_mismatch_raises(self):
        model, _ = random_model(20, 3, 1.0, 12)
        with pytest.raises(RestrictionError):
            Competitor(model.X.T @ model.X,
                       LinearRestriction(np.eye(2, 4), np.zeros(2)))

    def test_singular_projection_raises(self):
        # unreachable through validated inputs, so degrade the restriction
        # matrix after construction to exercise the defensive path; every
        # caller of the projection reports it the same way (the sweeps wrap
        # it in a ConfigError, see test_simulation)
        model, beta = random_model(20, 3, 1.0, 12)
        restriction = LinearRestriction(np.eye(1, 3), np.zeros(1))
        restriction.Rmat = np.zeros((1, 3))
        calls = (
            lambda: Competitor(model.X.T @ model.X, restriction),
            lambda: joint_moments_restricted(model, restriction, beta),
            lambda: sample_joint_singular(model, restriction, beta, 1.0, 10, 0),
        )
        for call in calls:
            with pytest.raises(RestrictionError, match="singular"):
                call()


class TestJointMomentsContainer:
    def test_identity_blocks(self):
        k = 3
        m = JointMoments.from_covariances(
            np.zeros(k), np.eye(k), np.zeros((k, k)), np.eye(k))
        np.testing.assert_allclose(m.Xi, 2.0 * np.eye(k))
        np.testing.assert_allclose(m.P @ m.P.T, m.Xi, atol=1e-12)
        np.testing.assert_allclose(m.R, m.P.T @ m.P, atol=1e-12)
        assert m.q == k
        assert m.psi0 == pytest.approx(2.0)
        assert m.psi1 == pytest.approx(np.sqrt(2.0))
        assert m.trace_A == pytest.approx(3.0)

    def test_factor_coordinates_invert_on_range(self):
        k = 4
        rng = np.random.default_rng(13)
        M = rng.normal(size=(2 * k, 2 * k))
        V = M @ M.T + 0.5 * np.eye(2 * k)
        m = JointMoments.from_covariances(
            rng.normal(size=k), V[:k, :k], V[:k, k:], V[k:, k:])
        d = rng.normal(size=(6, k)) @ m.P.T  # rows inside range(P)
        z = m.factor_coords(d)
        np.testing.assert_allclose(z @ m.P.T, d, atol=1e-10)

    def test_mu_solves_gamma(self):
        k = 3
        rng = np.random.default_rng(14)
        M = rng.normal(size=(2 * k, 2 * k))
        V = M @ M.T + 0.5 * np.eye(2 * k)
        gamma = rng.normal(size=k)
        m = JointMoments.from_covariances(gamma, V[:k, :k], V[:k, k:], V[k:, k:])
        np.testing.assert_allclose(m.P @ -m.mu, gamma, atol=1e-10)

    def test_rejects_indefinite_cov(self):
        k = 2
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(MomentConsistencyError):
            JointMoments.from_covariances(
                np.zeros(k), A, np.zeros((k, k)), np.eye(k))

    def test_rejects_asymmetric_cov(self):
        k = 2
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(MomentConsistencyError):
            JointMoments.from_covariances(
                np.zeros(k), A, np.zeros((k, k)), np.eye(k))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            JointMoments.from_covariances(
                np.zeros(3), np.eye(3), np.zeros((3, 3)), np.eye(2))

    @pytest.mark.parametrize("block,bad", [
        ("A", np.full((3, 3), np.nan)),
        ("Sigma", np.full((3, 3), np.inf)),
        ("Phi", np.diag([1.0, 1.0, np.inf])),
        ("gamma", np.array([0.0, np.nan, 0.0])),
    ])
    def test_rejects_non_finite_block_by_name(self, block, bad):
        blocks = {"gamma": np.zeros(3), "A": np.eye(3), "Sigma": np.zeros((3, 3)),
                  "Phi": np.eye(3)}
        blocks[block] = bad
        with pytest.raises(MomentConsistencyError,
                           match=f"^{block} must be nonempty and finite$"):
            JointMoments.from_covariances(**blocks)

    def test_finite_difference_near_the_float_maximum(self):
        # Xi = 1e308 I + I is finite, though Xi + Xi' is not
        k = 2
        m = JointMoments.from_covariances(np.zeros(k), 1e308 * np.eye(k),
                                          np.zeros((k, k)), np.eye(k))
        assert m.q == 2
        assert m.psi1 == 1e154

    def test_rejects_overflowing_difference_by_name(self):
        big = 1e308 * np.eye(2)
        with np.errstate(over="ignore"), pytest.raises(
                MomentConsistencyError, match="^difference covariance must be finite$"):
            JointMoments.from_covariances(np.zeros(2), big, np.zeros((2, 2)), big)

    def test_psd_check_sees_eigenvalues_near_the_float_maximum(self):
        vals, _ = psd_eigh("A", 1e308 * np.eye(2))
        np.testing.assert_array_equal(vals, [1e308, 1e308])
        # the trace overflows, but the tolerance, 1e-8 of it, does not
        with pytest.raises(MomentConsistencyError, match="^A has eigenvalue"):
            psd_eigh("A", np.diag([1e308, 1e308, -1e305]))
        with pytest.raises(MomentConsistencyError, match="^A has eigenvalue nan"):
            psd_eigh("A", np.full((2, 2), np.nan))

    def test_rejects_empty_blocks(self):
        with pytest.raises(MomentConsistencyError, match="^gamma must be nonempty"):
            JointMoments.from_covariances(
                np.zeros(0), np.eye(0), np.zeros((0, 0)), np.eye(0))

    @pytest.mark.parametrize("ratio,q", [(1e-9, 3), (1e-11, 2), (1e-13, 2)])
    def test_rank_follows_the_relative_cutoff_alone(self, ratio, q):
        # Xi = Phi = diag(1, ratio, 1): an eigenvalue at or below RANK_TOL
        # times the largest leaves the factor, however Xi is conditioned
        zero = np.zeros((3, 3))
        m = JointMoments.from_covariances(
            np.zeros(3), zero, zero, np.diag([1.0, ratio, 1.0]))
        assert m.q == q
        assert m.P.shape == (3, q)

    @pytest.mark.parametrize("seed,rank", [(20, 4), (21, 2)])
    def test_single_factor_structure(self, seed, rank):
        # R = P'P is diagonal, largest first; the columns of P map to the
        # unit vectors of the factor coordinates; psi0 and psi1 read R
        k = 4
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(k, rank))
        m = JointMoments.from_covariances(
            rng.normal(size=k), B @ B.T, np.zeros((k, k)), np.zeros((k, k)))
        assert m.q == rank
        np.testing.assert_allclose(m.P @ m.P.T, m.Xi, atol=1e-12)
        lam = np.diag(m.R)
        np.testing.assert_array_equal(m.R, np.diag(lam))
        assert np.all(np.diff(lam) <= 0)
        np.testing.assert_allclose(m.R, m.P.T @ m.P, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m.factor_coords(m.P.T), np.eye(rank), atol=1e-12)
        assert m.psi0 == lam[-1]
        assert m.psi1 == np.sqrt(lam[0])

    @pytest.mark.parametrize("A,scale,eigenvalue", [
        (np.diag([1.0, -1.0]), 0.0, "-1.000e+00"),
        (np.eye(2), -2.0, "-1.000e+00"),
        (np.eye(2), 1.0 + 1e-7, "-1.000e-07"),
    ], ids=["indefinite-block", "anti-correlated-past-one", "just-past-one"])
    def test_impossible_joint_law_is_refused_at_construction(self, A, scale,
                                                             eigenvalue):
        # Phi = I and Sigma = scale I. An indefinite A is refused by the same
        # joint check as a law whose blocks are PSD one by one but whose
        # correlation |scale| exceeds 1, which no random pair can have
        eye = np.eye(2)
        with pytest.raises(MomentConsistencyError, match="^" + re.escape(
                f"joint covariance has eigenvalue {eigenvalue} below tolerance") + "$"):
            JointMoments.from_covariances(np.zeros(2), A, scale * eye, eye)

    def test_correlation_just_below_one_is_accepted(self):
        eye = np.eye(2)
        m = JointMoments.from_covariances(np.zeros(2), eye, (1.0 - 1e-7) * eye, eye)
        assert m.q == 2

    @pytest.mark.parametrize("k", range(3, 9))
    def test_random_singular_joint_laws_build(self, k):
        # C = M M' / (2k) from a random 2k x r M, of every rank r: the
        # joint factor reproduces C, and Xi keeps rank min(r, k)
        rng = np.random.default_rng(300 + k)
        for r in range(1, 2 * k + 1):
            M = rng.normal(size=(2 * k, r))
            C = M @ M.T / (2 * k)
            m = JointMoments.from_covariances(rng.normal(size=k), C[:k, :k],
                                              C[:k, k:], C[k:, k:])
            L = m.joint_factor
            assert L.shape == (2 * k, 2 * k) and not L.flags.writeable
            assert np.abs(L @ L.T - C).max() <= 1e-13 * np.abs(C).max()
            assert m.q == min(r, k)


class TestJointMomentsDiag:
    def test_against_direct_simulation(self):
        # the analytic blocks against plain-numpy refits of both estimators
        sigma = 0.5
        model, beta = random_model(15, 3, sigma, 15)
        m = Competitor(model.X.T @ model.X).moments(sigma, beta)

        rng = np.random.default_rng(16)
        reps = 200_000
        eps = sigma * rng.normal(size=(reps, 15))
        XtX = model.X.T @ model.X
        G = np.linalg.inv(XtX)
        d = np.diag(XtX)
        mean_y = model.X @ beta
        U1 = (eps @ model.X) @ G
        beta_tilde = ((mean_y + eps) @ model.X) / d
        U2 = beta_tilde - beta

        se = np.sqrt((np.outer(np.diag(m.A), np.diag(m.A))
                      + m.A ** 2) / reps)
        assert np.all(np.abs(np.cov(U1.T) - m.A) < 6.0 * se + 1e-12)
        cross = U1.T @ (U2 - U2.mean(axis=0)) / (reps - 1)
        se_x = np.sqrt((np.outer(np.diag(m.A), np.diag(m.Phi))
                        + m.Sigma ** 2) / reps)
        assert np.all(np.abs(cross - m.Sigma) < 6.0 * se_x + 1e-12)
        se_p = np.sqrt((np.outer(np.diag(m.Phi), np.diag(m.Phi))
                        + m.Phi ** 2) / reps)
        assert np.all(np.abs(np.cov(U2.T) - m.Phi) < 6.0 * se_p + 1e-12)
        se_g = np.sqrt(np.diag(m.Phi) / reps)
        assert np.all(np.abs(U2.mean(axis=0) - m.gamma) < 6.0 * se_g)

    def test_full_rank_difference(self):
        model, beta = random_model(15, 3, 0.5, 17)
        m = Competitor(model.X.T @ model.X).moments(model.sigma, beta)
        assert m.q == 3

    def test_zero_sigma_is_degenerate(self):
        # no noise, no estimator difference to factor
        model, beta = random_model(15, 3, 0.0, 18)
        with pytest.raises(MomentConsistencyError):
            Competitor(model.X.T @ model.X).moments(model.sigma, beta)


class TestJointMomentsRestricted:
    def test_orthonormal_design_closed_form(self):
        # X'X = I: the constraint map is plain coordinate projection
        k, q = 4, 2
        qmat, _ = np.linalg.qr(np.random.default_rng(19).normal(size=(20, k)))
        beta = np.array([1.0, -1.0, 0.5, 2.0])
        y = qmat @ beta
        model = LinearModel(qmat, y, 1.0)
        R = np.eye(q, k)
        r = np.array([0.3, -0.2])
        m = joint_moments_restricted(model, LinearRestriction(R, r), beta)

        sel = R.T @ R  # projector onto the first q coordinates
        np.testing.assert_allclose(m.A, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(m.Xi, sel, atol=1e-10)
        np.testing.assert_allclose(m.Sigma, np.eye(k) - sel, atol=1e-10)
        np.testing.assert_allclose(m.Phi, np.eye(k) - sel, atol=1e-10)
        np.testing.assert_allclose(m.gamma, -R.T @ (R @ beta - r), atol=1e-10)
        assert m.q == q

    def test_rank_matches_restriction(self):
        model, beta = random_model(25, 4, 1.0, 20)
        for q in (1, 2, 3):
            R = np.random.default_rng(q).normal(size=(q, 4))
            m = joint_moments_restricted(
                model, LinearRestriction(R, R @ beta), beta)
            assert m.q == q
            np.testing.assert_allclose(m.P @ m.P.T, m.Xi, atol=1e-10)

    def test_full_rank_restriction_recovers_base_cov(self):
        # q = k pins the competitor completely: Xi = A, Phi = 0
        model, beta = random_model(25, 3, 1.0, 21)
        R = np.random.default_rng(22).normal(size=(3, 3))
        m = joint_moments_restricted(
            model, LinearRestriction(R, R @ beta), beta)
        np.testing.assert_allclose(m.Xi, m.A, atol=1e-10)
        np.testing.assert_allclose(m.Phi, 0.0, atol=1e-10)

    def test_satisfied_restriction_centers_competitor(self):
        model, beta = random_model(25, 4, 1.0, 23)
        R = np.eye(2, 4)
        m = joint_moments_restricted(
            model, LinearRestriction(R, R @ beta), beta)
        np.testing.assert_array_equal(m.gamma, 0.0)


class TestCompetitor:
    """The one correction form against the closed forms each competitor
    had on its own. Over these designs the largest gaps measured were
    3e-16 (diagonal blocks), 1.4e-15 (diagonal fit), 1.8e-13 (restricted
    blocks) and 4.9e-14 (restricted trace gap), relative to the scale of
    A, the fit or trace G."""

    @pytest.mark.parametrize("seed", range(8))
    def test_diagonal_matches_closed_forms(self, seed):
        sigma = 0.7
        model, beta = random_model(30, 2 + seed % 5, sigma, 300 + seed)
        XtX = model.X.T @ model.X
        G, d = np.linalg.inv(XtX), np.diag(XtX)
        comp = Competitor(XtX)
        m = comp.moments(sigma, beta)
        scale = np.abs(m.A).max()
        np.testing.assert_allclose(m.Sigma, sigma**2 * np.diag(1.0 / d),
                                   rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(m.Phi, sigma**2 * XtX / np.outer(d, d),
                                   rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(m.gamma, XtX @ beta / d - beta,
                                   rtol=0, atol=1e-13 * np.abs(beta).max())
        assert comp.trace_gap == pytest.approx(
            np.trace(G) - np.sum(1.0 / d), rel=0, abs=1e-13 * np.trace(G))
        direct = model.X.T @ model.y / d
        np.testing.assert_allclose(comp.fit(fit_ols(model)), direct,
                                   rtol=0, atol=1e-13 * np.abs(direct).max())

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_matches_closed_forms(self, seed):
        sigma = 0.7
        k = 2 + seed % 5
        model, beta = random_model(30, k, sigma, 400 + seed)
        rng = np.random.default_rng(seed)
        q = 1 + seed % k
        restriction = LinearRestriction(rng.normal(size=(q, k)),
                                        rng.normal(size=q))
        XtX = model.X.T @ model.X
        G = np.linalg.inv(XtX)
        J = restriction_projection(XtX, restriction)
        comp = Competitor(XtX, restriction)
        m = comp.moments(sigma, beta)
        A = sigma**2 * 0.5 * (G + G.T)
        cov = A - J @ restriction.Rmat @ A
        np.testing.assert_allclose(m.Sigma, cov, rtol=0,
                                   atol=1e-11 * np.abs(A).max())
        np.testing.assert_allclose(m.Phi, cov, rtol=0,
                                   atol=1e-11 * np.abs(A).max())
        np.testing.assert_array_equal(
            m.gamma, -J @ (restriction.Rmat @ beta - restriction.r))
        assert comp.trace_gap == pytest.approx(
            np.trace(J @ restriction.Rmat @ G), rel=0,
            abs=1e-11 * np.trace(G))
        beta_hat = fit_ols(model)
        fitted = comp.fit(beta_hat)
        np.testing.assert_allclose(
            fitted, beta_hat - J @ (restriction.Rmat @ beta_hat - restriction.r),
            rtol=0, atol=1e-13 * np.abs(beta_hat).max())
        # one vector and rows give the same fit
        np.testing.assert_array_equal(comp.fit(beta_hat[None, :])[0], fitted)

    def test_singular_draws_are_restricted_refits(self):
        # U1 is sigma z chol(G)' from k normals, and each U2 row is the
        # restricted fit on y = X (beta + U1), minus beta
        sigma = 0.8
        model, beta = random_model(20, 4, sigma, 500)
        restriction = LinearRestriction(np.eye(2, 4), [0.5, -1.0])
        U1, U2 = sample_joint_singular(model, restriction, beta, sigma, 5, 31)
        z = _rng.normals(31, 5, 4, stream=_rng.STREAM_NOISE)
        root = np.linalg.cholesky(np.linalg.inv(model.X.T @ model.X))
        np.testing.assert_allclose(U1, sigma * z @ root.T, rtol=0, atol=1e-12)
        for i in range(5):
            refit = LinearModel(model.X, model.X @ (beta + U1[i]), sigma)
            refitted = Competitor(refit.X.T @ refit.X, restriction).fit(fit_ols(refit))
            np.testing.assert_allclose(U2[i], refitted - beta, rtol=0, atol=1e-12)
