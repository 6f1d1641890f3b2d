"""Model container, competing fits, and joint error moments."""

import numpy as np
import pytest

from steinrule import (
    DegenerateColumnError,
    JointMoments,
    LinearModel,
    LinearRestriction,
    MomentConsistencyError,
    RankDeficientError,
    RestrictionError,
    fit_diag_competitor,
    fit_ols,
    SimConfig,
    fit_restricted,
    gamma_sweep,
    joint_moments_diag,
    joint_moments_restricted,
    sample_joint_singular,
)


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

    def test_validate_false_skips_rank_check(self):
        col = np.ones(10)
        X = np.column_stack([col, 2.0 * col])
        model = LinearModel(X, np.zeros(10), 1.0, validate=False)
        assert model.k == 2


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

    def test_rank_deficient_raises(self):
        col = np.ones(10)
        X = np.column_stack([col, 2.0 * col])
        model = LinearModel(X, np.zeros(10), 1.0, validate=False)
        with pytest.raises(RankDeficientError):
            fit_ols(model)


class TestFitDiagCompetitor:
    def test_matches_per_column_projections(self):
        model, _ = random_model(25, 4, 1.0, 5)
        expect = np.empty(4)
        for i in range(4):
            col = model.X[:, i]
            expect[i] = (col @ model.y) / (col @ col)
        np.testing.assert_allclose(fit_diag_competitor(model), expect, rtol=1e-12)

    def test_orthogonal_columns_equal_ols(self):
        # with orthogonal columns the diagonal of X'X is all of X'X
        q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(15, 3)))
        X = q * np.array([2.0, 1.0, 0.5])
        y = np.random.default_rng(7).normal(size=15)
        model = LinearModel(X, y, 1.0)
        np.testing.assert_allclose(
            fit_diag_competitor(model), fit_ols(model), rtol=1e-10)

    def test_ones_column_gets_mean(self):
        model, _ = random_model(30, 3, 1.0, 8)
        assert fit_diag_competitor(model)[0] == pytest.approx(model.y.mean())

    def test_zero_column_raises(self):
        X = np.column_stack([np.ones(6), np.zeros(6)])
        model = LinearModel(X, np.zeros(6), 1.0, validate=False)
        with pytest.raises(DegenerateColumnError):
            fit_diag_competitor(model)


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
            fit_restricted(model, restriction), expect, rtol=1e-10)

    def test_constraint_holds_after_fit(self):
        for seed in range(5):
            model, _ = random_model(20, 4, 1.0, 100 + seed)
            R = np.random.default_rng(seed).normal(size=(2, 4))
            restriction = LinearRestriction(R, np.array([1.0, -0.5]))
            fitted = fit_restricted(model, restriction)
            np.testing.assert_allclose(R @ fitted, restriction.r, atol=1e-8)

    def test_satisfied_constraint_changes_nothing(self):
        model, _ = random_model(20, 3, 1.0, 11)
        beta_hat = fit_ols(model)
        R = np.array([[1.0, 2.0, 0.0]])
        restriction = LinearRestriction(R, R @ beta_hat)
        np.testing.assert_allclose(
            fit_restricted(model, restriction), beta_hat, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        model, _ = random_model(20, 3, 1.0, 12)
        with pytest.raises(RestrictionError):
            fit_restricted(model, LinearRestriction(np.eye(2, 4), np.zeros(2)))

    def test_singular_projection_raises(self):
        # unreachable through validated inputs, so degrade the restriction
        # matrix after construction to exercise the defensive path; every
        # caller of the projection reports it the same way
        model, beta = random_model(20, 3, 1.0, 12)
        restriction = LinearRestriction(np.eye(1, 3), np.zeros(1))
        restriction.Rmat = np.zeros((1, 3))
        config = SimConfig(n=20, k=3, sigma=1.0, rho=0.3, beta_norms=(1.0,),
                           replications=100, seed=0, competitor=restriction)
        calls = (
            lambda: fit_restricted(model, restriction),
            lambda: joint_moments_restricted(model, restriction, beta),
            lambda: sample_joint_singular(model, restriction, beta, 1.0, 10, 0),
            lambda: gamma_sweep(config, gamma_norms=(1.0,)),
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


class TestJointMomentsDiag:
    def test_against_direct_simulation(self):
        # the analytic blocks against plain-numpy refits of both estimators
        sigma = 0.5
        model, beta = random_model(15, 3, sigma, 15)
        m = joint_moments_diag(model, beta)

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
        m = joint_moments_diag(model, beta)
        assert m.q == 3

    def test_zero_sigma_is_degenerate(self):
        # no noise, no estimator difference to factor
        model, beta = random_model(15, 3, 0.0, 18)
        with pytest.raises(MomentConsistencyError):
            joint_moments_diag(model, beta)


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
        np.testing.assert_allclose(m.gamma, 0.0, atol=1e-12)
