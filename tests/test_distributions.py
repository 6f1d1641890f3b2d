"""Joint samplers, mixing laws, and the closed-form inverse moments.

Monte Carlo comparisons here use plain numpy generators as the
independent reference, never the package's own streams.
"""

import numpy as np
import pytest

from steinrule import (
    DivergentMomentError,
    EllipticalSpec,
    JointMoments,
    LinearModel,
    LinearRestriction,
    elliptical_inv_quadnorm_mean,
    inv_chisq_mean,
    sample_joint_elliptical,
    sample_joint_gaussian,
    sample_joint_singular,
)
from steinrule import _rng


def random_moments(k, seed, gamma_scale=1.0):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2 * k, 2 * k))
    V = M @ M.T + 0.5 * np.eye(2 * k)
    return JointMoments.from_covariances(
        gamma_scale * rng.normal(size=k), V[:k, :k], V[:k, k:], V[k:, k:])


class TestStreamAddressing:
    def test_reproducible(self):
        a = _rng.uniforms(7, 100, 3)
        b = _rng.uniforms(7, 100, 3)
        np.testing.assert_array_equal(a, b)

    def test_batches_concatenate(self):
        whole = _rng.uniforms(7, 10, 5)
        first = _rng.uniforms(7, 4, 5)
        rest = _rng.uniforms(7, 6, 5, start=4)
        np.testing.assert_array_equal(np.vstack([first, rest]), whole)

    def test_streams_are_distinct(self):
        a = _rng.uniforms(7, 50, 2, stream=0)
        b = _rng.uniforms(7, 50, 2, stream=1)
        assert not np.array_equal(a, b)

    def test_seeds_are_distinct(self):
        assert not np.array_equal(_rng.uniforms(1, 50, 2), _rng.uniforms(2, 50, 2))

    def test_normals_are_finite(self):
        g = _rng.normals(3, 10_000, 4)
        assert np.isfinite(g).all()
        assert abs(g.mean()) < 0.05

    def test_spawn_seed_depends_on_path(self):
        s1 = _rng.spawn_seed(9, 0, 1)
        s2 = _rng.spawn_seed(9, 0, 2)
        s3 = _rng.spawn_seed(9, 1, 1)
        assert len({s1, s2, s3}) == 3
        assert _rng.spawn_seed(9, 0, 1) == s1


class TestEllipticalSpec:
    def test_dirac_moments(self):
        spec = EllipticalSpec.dirac()
        assert spec.first_abs_moment == 1.0
        assert spec.inv_mean == 1.0

    def test_gamma_moments(self):
        spec = EllipticalSpec.gamma_mixture(5.0)
        assert spec.first_abs_moment == 1.0
        assert spec.inv_mean == pytest.approx(5.0 / 3.0)

    def test_gamma_needs_nu_above_two(self):
        with pytest.raises(ValueError):
            EllipticalSpec.gamma_mixture(2.0)

    def test_two_point_moments(self):
        spec = EllipticalSpec.two_point(0.5, 2.0, 0.5)
        assert spec.first_abs_moment == pytest.approx(1.25)
        assert spec.inv_mean == pytest.approx(1.25)

    def test_two_point_validation(self):
        with pytest.raises(ValueError):
            EllipticalSpec.two_point(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            EllipticalSpec.two_point(0.5, 2.0, 1.5)

    def test_dirac_draws_consume_no_randomness(self):
        np.testing.assert_array_equal(
            EllipticalSpec.dirac().mixing_draws(3, 5), np.ones(5))

    def test_gamma_draws_match_root_finding_free_reference(self):
        # same uniforms through an independent quantile route
        spec = EllipticalSpec.gamma_mixture(5.0)
        draws = spec.mixing_draws(11, 50_000)
        assert draws.min() > 0
        assert draws.mean() == pytest.approx(1.0, abs=0.02)
        assert np.mean(1.0 / draws) == pytest.approx(5.0 / 3.0, abs=0.05)

    def test_two_point_draw_frequencies(self):
        spec = EllipticalSpec.two_point(0.5, 2.0, 0.25)
        draws = spec.mixing_draws(12, 100_000)
        assert set(np.unique(draws)) == {0.5, 2.0}
        assert np.mean(draws == 0.5) == pytest.approx(0.25, abs=0.01)


class TestSampleJointGaussian:
    def test_moments_match_blocks(self):
        m = random_moments(3, 30)
        U1, U2 = sample_joint_gaussian(m, 300_000, 31)
        n = U1.shape[0]
        se_a = np.sqrt((np.outer(np.diag(m.A), np.diag(m.A)) + m.A ** 2) / n)
        assert np.all(np.abs(np.cov(U1.T) - m.A) < 6 * se_a)
        se_g = np.sqrt(np.diag(m.Phi) / n)
        assert np.all(np.abs(U2.mean(axis=0) - m.gamma) < 6 * se_g)
        cross = U1.T @ (U2 - U2.mean(axis=0)) / (n - 1)
        se_x = np.sqrt((np.outer(np.diag(m.A), np.diag(m.Phi)) + m.Sigma ** 2) / n)
        assert np.all(np.abs(cross - m.Sigma) < 6 * se_x)

    def test_bit_reproducible(self):
        m = random_moments(3, 32)
        a1, b1 = sample_joint_gaussian(m, 1000, 33)
        a2, b2 = sample_joint_gaussian(m, 1000, 33)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_start_offset_continues_the_stream(self):
        m = random_moments(3, 34)
        whole = sample_joint_gaussian(m, 10, 35)
        head = sample_joint_gaussian(m, 6, 35)
        tail = sample_joint_gaussian(m, 4, 35, start=6)
        np.testing.assert_array_equal(np.vstack([head[0], tail[0]]), whole[0])
        np.testing.assert_array_equal(np.vstack([head[1], tail[1]]), whole[1])


class TestSampleJointElliptical:
    def test_dirac_equals_gaussian_bitwise(self):
        m = random_moments(3, 36)
        g = sample_joint_gaussian(m, 500, 37)
        e = sample_joint_elliptical(m, EllipticalSpec.dirac(), 500, 37)
        np.testing.assert_array_equal(g[0], e[0])
        np.testing.assert_array_equal(g[1], e[1])

    def test_gamma_mixing_inflates_covariance(self):
        # deviations scale by 1/sqrt(z); the location does not
        m = random_moments(3, 38)
        spec = EllipticalSpec.gamma_mixture(5.0)
        U1, U2 = sample_joint_elliptical(m, spec, 400_000, 39)
        n = U1.shape[0]
        target = spec.inv_mean * m.A
        # fourth moments of a t-like law are fat; keep a wide gate
        assert np.all(np.abs(np.cov(U1.T) - target)
                      < 0.06 * np.abs(target).max() + 6 * np.sqrt(np.diag(target).max() ** 2 / n))
        se_g = np.sqrt(spec.inv_mean * np.diag(m.Phi) / n)
        assert np.all(np.abs(U2.mean(axis=0) - m.gamma) < 6 * se_g)

    def test_two_point_mixture_has_excess_kurtosis(self):
        m = JointMoments.from_covariances(
            np.zeros(1), np.eye(1), np.zeros((1, 1)), 2.0 * np.eye(1))
        spec = EllipticalSpec.two_point(0.5, 2.0, 0.5)
        U1, _ = sample_joint_elliptical(m, spec, 400_000, 40)
        x = U1[:, 0]
        kurt = np.mean(x ** 4) / np.mean(x ** 2) ** 2
        # E[z^-2] / E[z^-1]^2 = (0.5*4 + 0.5*0.25) / 1.25^2 = 1.36
        assert kurt == pytest.approx(3.0 * 2.125 / 1.5625, rel=0.05)


class TestSampleJointSingular:
    @staticmethod
    def _setup(seed, q=2, n=20, k=4):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), 1 + rng.normal(size=(n, k - 1))])
        beta = rng.normal(size=k)
        sigma = 0.7
        model = LinearModel(X, X @ beta + sigma * rng.normal(size=n), sigma)
        R = rng.normal(size=(q, k))
        restriction = LinearRestriction(R, R @ beta)
        return model, restriction, beta, sigma

    def test_difference_rank_is_q(self):
        model, restriction, beta, sigma = self._setup(41, q=2)
        U1, U2 = sample_joint_singular(model, restriction, beta, sigma, 100_000, 42)
        diff = U1 - U2
        vals = np.linalg.svd(diff, compute_uv=False)
        assert vals[1] > 1e-3
        assert vals[2] < 1e-8 * vals[0]

    def test_constraint_holds_on_every_draw(self):
        model, restriction, beta, sigma = self._setup(43, q=3)
        U1, U2 = sample_joint_singular(model, restriction, beta, sigma, 5_000, 44)
        fitted = beta + U2
        gaps = fitted @ restriction.Rmat.T - restriction.r
        assert np.abs(gaps).max() < 1e-8

    def test_competitor_unbiased_when_constraint_true(self):
        model, restriction, beta, sigma = self._setup(45, q=2)
        U1, U2 = sample_joint_singular(model, restriction, beta, sigma, 200_000, 46)
        assert np.abs(U2.mean(axis=0)).max() < 6 * sigma / np.sqrt(200_000) * 10

    def test_base_error_matches_plain_refit(self):
        model, restriction, beta, sigma = self._setup(47)
        U1, _ = sample_joint_singular(model, restriction, beta, sigma, 50_000, 48)
        G = np.linalg.inv(model.X.T @ model.X)
        target = sigma ** 2 * G
        n = U1.shape[0]
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
        assert np.all(np.abs(np.cov(U1.T) - target) < 6 * se)


class TestInvChisqMean:
    def test_central_closed_form(self):
        for k in range(3, 13):
            assert inv_chisq_mean(k, 0.0) == 1.0 / (k - 2)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(49)
        n = 400_000
        for k, lam in ((5, 1.0), (5, 2.0), (8, 5.0)):
            draws = rng.noncentral_chisquare(k, lam, size=n)
            inv = 1.0 / draws
            se = inv.std(ddof=1) / np.sqrt(n)
            assert inv_chisq_mean(k, lam) == pytest.approx(inv.mean(), abs=4 * se)

    def test_noncentrality_strictly_reduces(self):
        for k in (3, 5, 9):
            values = [inv_chisq_mean(k, lam) for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert all(v < 1.0 / (k - 2) for v in values[1:])

    def test_more_degrees_reduce(self):
        for lam in (0.0, 2.0):
            values = [inv_chisq_mean(k, lam) for k in range(3, 10)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_exact_at_four_degrees_across_noncentralities(self):
        # k = 4 has the elementary form (1 - exp(-lam/2)) / lam; the value
        # must stay accurate in relative terms however large lam gets
        for lam in (0.5, 20.0, 1e3, 1e5):
            exact = -np.expm1(-lam / 2.0) / lam
            assert inv_chisq_mean(4, lam) == pytest.approx(exact, rel=1e-13, abs=0)

    def test_divergent_degrees_raise(self):
        with pytest.raises(DivergentMomentError):
            inv_chisq_mean(2, 0.0)

    def test_negative_noncentrality_raises(self):
        with pytest.raises(ValueError):
            inv_chisq_mean(5, -1.0)


class TestEllipticalInvQuadnormMean:
    def test_dirac_reduces_to_chisq(self):
        assert elliptical_inv_quadnorm_mean(
            EllipticalSpec.dirac(), 5, 0.0) == pytest.approx(1 / 3)
        assert elliptical_inv_quadnorm_mean(
            EllipticalSpec.dirac(), 5, 2.0) == pytest.approx(inv_chisq_mean(5, 2.0))

    def test_gamma_mixture_central_value(self):
        # central case: E[z * 1/(k-2)] = 1/(k-2) since the mixing mean is 1
        spec = EllipticalSpec.gamma_mixture(5.0)
        assert elliptical_inv_quadnorm_mean(spec, 5, 0.0) == pytest.approx(1 / 3, rel=1e-8)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(50)
        n = 400_000
        k, mu_sq = 6, 1.5
        mu = np.zeros(k)
        mu[0] = np.sqrt(mu_sq)
        for spec in (EllipticalSpec.gamma_mixture(5.0),
                     EllipticalSpec.two_point(0.5, 2.0, 0.5)):
            if spec.kind == "gamma-mixture":
                z = rng.gamma(spec.nu / 2.0, 2.0 / spec.nu, size=n)
            else:
                z = np.where(rng.uniform(size=n) < spec.w, spec.z1, spec.z2)
            draws = mu + rng.normal(size=(n, k)) / np.sqrt(z)[:, None]
            inv = 1.0 / (draws ** 2).sum(axis=1)
            se = inv.std(ddof=1) / np.sqrt(n)
            assert elliptical_inv_quadnorm_mean(spec, k, mu_sq) == pytest.approx(
                inv.mean(), abs=4 * se)

    def test_gamma_mixture_exact_at_four_dimensions(self):
        # k = 4 mixes to (1 - (1 + mu_sq / (2a))^-a) / mu_sq with a = nu/2
        for nu in (2.1, 5.0):
            a = nu / 2.0
            spec = EllipticalSpec.gamma_mixture(nu)
            for mu_sq in (1.5, 200.0, 1000.0):
                exact = -np.expm1(-a * np.log1p(mu_sq / (2.0 * a))) / mu_sq
                assert elliptical_inv_quadnorm_mean(spec, 4, mu_sq) == pytest.approx(
                    exact, rel=1e-13, abs=0)

    def test_divergent_dimension_raises(self):
        with pytest.raises(DivergentMomentError):
            elliptical_inv_quadnorm_mean(EllipticalSpec.dirac(), 2, 0.0)
