"""Joint samplers, mixing laws, and the closed-form inverse moments.

Monte Carlo comparisons here use plain numpy generators as the
independent reference, never the package's own streams.
"""

import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainccinv, gammaincinv, ndtr

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
from steinrule.distributions import _NODES, _Z, _gamma_quantile
from steinrule.risk_bounds import restricted_instance


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

    def test_largest_seed_is_accepted(self):
        assert _rng.uniforms(2**64 - 1, 3, 2).shape == (3, 2)
        _rng.spawn_seed(np.uint32(2**32 - 1), 0)

    def test_numpy_integer_index_matches_int(self):
        np.testing.assert_array_equal(_rng.uniforms(0, 3, 2, start=np.int64(0)),
                                      _rng.uniforms(0, 3, 2))
        np.testing.assert_array_equal(
            _rng.uniforms(7, 3, np.int64(5), start=np.int64(4)),
            _rng.uniforms(7, 3, 5, start=4))
        m = random_moments(3, 36)
        for a, b in zip(sample_joint_gaussian(m, 10, 0, start=np.int64(5)),
                        sample_joint_gaussian(m, 10, 0, start=5)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 100])
    def test_chunks_tile_without_a_lone_row(self, monkeypatch, rows):
        # one-row batches take BLAS's matrix-vector kernel, so no chunk may
        # hold a single draw; beyond that, no chunk exceeds chunk_rows
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", rows * 8)
        assert _rng.chunk_rows(8) == rows
        for count in (1, 2, 3, 5, 99, 100, 101, 201, 1001):
            spans = list(_rng.chunks(count, 8))
            assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
            assert spans[-1][1] == count
            sizes = [hi - lo for lo, hi in spans]
            assert min(sizes) >= min(2, count)
            assert max(sizes) <= max(rows, 3)
            if rows >= 3:
                assert len(spans) == -(-count // rows)
        assert list(_rng.chunks(0, 8)) == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "3"])
    def test_bad_seed_is_refused(self, seed):
        msg = r"seed must be an integer in \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=msg):
            _rng.uniforms(seed, 3, 2)
        with pytest.raises(ValueError, match=msg):
            _rng.spawn_seed(seed, 0)


class TestRunChunks:
    """_rng.run_chunks, with the CPU count it sizes its threads by patched in."""

    @staticmethod
    def _setup(monkeypatch, threads, rows=7):
        monkeypatch.setattr(_rng, "_worker_count", lambda: threads)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", rows * 8)
        return list(_rng.chunks(100, 8))

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_results_come_back_in_chunk_order(self, monkeypatch, threads):
        spans = self._setup(monkeypatch, threads)
        seen, idents = [], set()

        def fn(lo, hi):
            seen.append((lo, hi))
            idents.add(threading.get_ident())
            # even chunks finish late, so completion order differs
            time.sleep(0.002 if spans.index((lo, hi)) % 2 == 0 else 0)
            return lo, hi

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _rng.run_chunks(fn, 100, 8) == spans
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == spans
        # the caller takes chunks too
        assert threading.get_ident() in idents
        assert (len(idents) > 1) == (threads > 1)

    def test_first_failure_in_chunk_order_is_raised(self, monkeypatch):
        threads = 3
        spans = self._setup(monkeypatch, threads)
        events, finished = [], []

        def fn(lo, hi):
            i = spans.index((lo, hi))
            events.append(("start", i))
            try:
                time.sleep(0.01)
                if i == 3:
                    time.sleep(0.02)
                    events.append(("fail", i))
                    raise ValueError("chunk 3")
                if i == 4:
                    events.append(("fail", i))
                    raise KeyError("chunk 4")
                if i == 5:
                    time.sleep(0.1)
                return i
            finally:
                finished.append(i)

        with pytest.raises(ValueError, match="chunk 3"):
            _rng.run_chunks(fn, 100, 8)
        # chunk 4 fails first, but chunk 3 comes first in chunk order. After
        # a failure, only a thread between chunks may still start one
        first = events.index(("fail", 4))
        assert sum(kind == "start" for kind, _ in events[first:]) <= threads - 1
        # the chunks in flight finish before the failure is raised
        assert sorted(finished) == sorted(i for kind, i in events if kind == "start")

    def test_caller_errstate_reaches_the_chunks(self, monkeypatch):
        spans = self._setup(monkeypatch, 2)

        def divide(lo, hi):
            return np.ones(hi - lo) / np.zeros(hi - lo)

        with np.errstate(all="raise"):
            assert (_rng.run_chunks(lambda lo, hi: np.geterr()["divide"], 100, 8)
                    == ["raise"] * len(spans))
            with pytest.raises(FloatingPointError):
                _rng.run_chunks(divide, 100, 8)

    def test_nested_call_completes(self, monkeypatch):
        spans = self._setup(monkeypatch, 2)
        out, started = [], []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name) or start(thread))

        def outer(lo, hi):
            time.sleep(0.005)   # so that every thread takes outer chunks
            return sum(_rng.run_chunks(lambda a, b: b - a, 100, 8))

        # nested chunks run inline and start no thread: helpers of their
        # own would put W * W threads on W CPUs
        caller = threading.Thread(
            target=lambda: out.append(_rng.run_chunks(outer, 100, 8)), daemon=True)
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert out == [[100] * len(spans)]
        assert started == [caller.name, "steinrule-chunk"]

    def test_caller_runs_the_first_chunk_when_helpers_start_first(
            self, monkeypatch):
        # a caller descheduled just after it starts each helper, as on a
        # loaded machine: the helpers could drain every chunk before it
        # looks for one, unless chunk 0 is its own before they start
        spans = self._setup(monkeypatch, 8)
        start = threading.Thread.start

        def stalled(thread):
            start(thread)
            time.sleep(0.01)

        monkeypatch.setattr(threading.Thread, "start", stalled)
        owners = {}

        def fn(lo, hi):
            owners[spans.index((lo, hi))] = threading.get_ident()
            return lo, hi

        assert _rng.run_chunks(fn, 100, 8) == spans
        assert owners[0] == threading.get_ident()
        assert sorted(owners) == list(range(len(spans)))

    def test_no_thread_outlives_the_call(self, monkeypatch):
        spans = self._setup(monkeypatch, 2)
        before = threading.active_count()
        assert _rng.run_chunks(lambda lo, hi: (lo, hi), 100, 8) == spans
        assert threading.active_count() == before
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("steinrule-chunk")] == []


class TestPool:
    """_rng.moments parts of uneven chunks, pooled by _rng.pool."""

    def test_uneven_chunks_match_concatenation(self):
        # the 1e8 row: a naive sum of squares loses every digit of its spread
        rng = np.random.default_rng(54)
        n = 10_007
        terms = np.stack([rng.normal(size=n), 1e8 + rng.normal(size=n),
                          rng.standard_cauchy(size=n) ** 2, np.zeros(n)])
        cuts = [0, 1, 2, 1_000, 1_001, 5_000, n]
        # moments consumes a 2-D array, and terms is read below
        parts = [_rng.moments(terms[:, lo:hi].copy())
                 for lo, hi in zip(cuts[:-1], cuts[1:])]
        for (mean, se), row in zip(_rng.mean_se(parts), terms):
            assert mean == pytest.approx(row.mean(), rel=1e-14, abs=0.0)
            assert se == pytest.approx(row.std(ddof=1) / np.sqrt(n), rel=1e-14, abs=0.0)
        # every co-moment, the zero row's exactly 0
        M = _rng.pool(parts)[3]
        scale = np.sqrt(np.outer(np.diag(M), np.diag(M)))
        assert np.all(np.abs(M - np.cov(terms) * (n - 1)) <= 1e-13 * scale)

    def test_consumes_a_2d_array_in_place(self):
        # a (rows, m) array is centred where it lies: no second block of
        # rows * m floats, and the part is bitwise that of its rows stacked
        rng = np.random.default_rng(55)
        rows = np.stack([rng.normal(size=100_000), 1e8 + rng.normal(size=100_000),
                         rng.standard_cauchy(size=100_000)])
        expect = _rng.moments(tuple(rows))
        tracemalloc.start()
        try:
            got = _rng.moments(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4, f"peak {peak} bytes"
        assert got[0] == expect[0]
        for a, b in zip(got[1:], expect[1:]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("at", [2, 7])
    def test_infinite_term_merges_to_inf(self, at):
        row = np.arange(10.0)
        row[at] = np.inf
        with np.errstate(invalid="ignore"):
            parts = [_rng.moments([row[:5]]), _rng.moments([row[5:]])]
        assert _rng.mean_se(parts)[0][0] == np.inf == row.mean()


class TestEllipticalSpec:
    def test_dirac_moments(self):
        spec = EllipticalSpec.dirac()
        assert spec.first_abs_moment == 1.0

    def test_gamma_moments(self):
        spec = EllipticalSpec.gamma_mixture(5.0)
        assert spec.first_abs_moment == 1.0

    def test_gamma_needs_nu_above_two(self):
        with pytest.raises(ValueError):
            EllipticalSpec.gamma_mixture(2.0)

    @pytest.mark.parametrize("nu", [1e20, 1e100])
    def test_gamma_refuses_nu_past_its_table(self, nu):
        # past nu = 2e4 the tabulated quantile loses digits; at 1e20 some
        # draws were NaN, and at 1e100 |z - 1| reached 2e-3
        with pytest.raises(ValueError, match=re.escape(
                f"gamma mixing is tabulated for nu <= 20000, got {nu}; "
                "use the Gaussian law (dirac-at-one) past it")):
            EllipticalSpec.gamma_mixture(nu)

    def test_gamma_accepts_nu_at_the_end_of_its_table(self):
        assert EllipticalSpec.gamma_mixture(2e4).nu == 2e4

    def test_two_point_moments(self):
        spec = EllipticalSpec.two_point(0.5, 2.0, 0.5)
        assert spec.first_abs_moment == pytest.approx(1.25)

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
        u = _rng.uniforms(11, 50_000, 1, stream=_rng.STREAM_MIXING)[:, 0]
        np.testing.assert_allclose(draws, gammaincinv(2.5, u) / 2.5, rtol=5e-14, atol=0)

    @pytest.mark.parametrize("nu", [2.02, 3.0, 5.0, 7.5, 30.0, 1e4])
    def test_gamma_quantile_matches_root_finding(self, nu):
        powers = 2.0 ** -np.arange(1, 54)
        u = np.concatenate([powers, 1.0 - powers,
                            np.random.default_rng(61).random(20_000)])
        a = nu / 2.0
        np.testing.assert_allclose(_gamma_quantile(a, u), gammaincinv(a, u),
                                   rtol=5e-14, atol=0)

    @pytest.mark.parametrize("a", np.geomspace(1.001, 1e4, 25))
    def test_gamma_quantile_table_at_nodes_and_midpoints(self, a):
        # the table's nodes and interval midpoints in z whose uniforms lie
        # in [2^-53, 1 - 2^-53], each tail against its own inverse
        z = np.linspace(-_Z, _Z, 2 * _NODES - 1)
        u = ndtr(z[np.abs(z) <= 8.2])
        expected = np.where(u <= 0.5, gammaincinv(a, u), gammainccinv(a, 1.0 - u))
        np.testing.assert_allclose(_gamma_quantile(a, u), expected,
                                   rtol=5e-14, atol=0)

    def test_gamma_quantile_of_a_zero_uniform_is_positive(self):
        # Generator.random can emit 0, whose exact quantile is 0: a draw
        # divided by its square root would be infinite
        x = _gamma_quantile(2.5, np.array([0.0, 2.0 ** -53]))
        assert np.all(np.isfinite(x)) and np.all(x > 0)

    @pytest.mark.parametrize("spec", [EllipticalSpec.gamma_mixture(5.0),
                                      EllipticalSpec.two_point(0.5, 2.0, 0.3)])
    @pytest.mark.parametrize("cuts", [[1, 3, 500, 999], [2, 4, 7, 13, 601],
                                      [333, 334, 998]])
    def test_mixing_draws_do_not_depend_on_the_batch(self, spec, cuts):
        bounds = [0, *cuts, 1000]
        parts = [spec.mixing_draws(13, hi - lo, start=lo)
                 for lo, hi in zip(bounds, bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), spec.mixing_draws(13, 1000))

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
        inv_mean = 5.0 / 3.0    # E[1/z] = nu / (nu - 2)
        target = inv_mean * m.A
        # fourth moments of a t-like law are fat; keep a wide gate
        assert np.all(np.abs(np.cov(U1.T) - target)
                      < 0.06 * np.abs(target).max() + 6 * np.sqrt(np.diag(target).max() ** 2 / n))
        se_g = np.sqrt(inv_mean * np.diag(m.Phi) / n)
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

    def test_start_offset_continues_the_stream(self):
        # chunks the size the bound suite draws, where BLAS matmul picked a
        # different kernel than for one draw of every row
        model, restriction, beta, sigma = self._setup(47, q=2)
        count, chunk = 3 * 6_400 + 17, 6_400
        whole = np.hstack(sample_joint_singular(model, restriction, beta, sigma,
                                                count, 48))
        parts = [np.hstack(sample_joint_singular(model, restriction, beta, sigma,
                                                 min(chunk, count - lo), 48, lo))
                 for lo in range(0, count, chunk)]
        np.testing.assert_array_equal(np.vstack(parts), whole)

    def test_base_error_rows_do_not_depend_on_the_batch(self):
        # one-row batches too, where BLAS matmul takes its matrix-vector kernel
        model, restriction, beta, sigma = self._setup(47, q=2)
        whole = sample_joint_singular(model, restriction, beta, sigma, 200, 48)[0]
        rows = [sample_joint_singular(model, restriction, beta, sigma, 1, 48, i)[0]
                for i in range(200)]
        np.testing.assert_array_equal(np.vstack(rows), whole)

    @pytest.mark.parametrize("sigma", [1e-10, 1e-17])
    def test_competitor_error_keeps_the_base_error_digits(self, sigma):
        # refitting beta + U1 lost U1's digits when sigma << |beta|: U2
        # was 4.3e-6 off at sigma = 1e-10, and all of it at 1e-17
        model, restriction, beta, _ = restricted_instance(4, 3)
        R, r = restriction.Rmat, restriction.r
        G = np.linalg.inv(model.X.T @ model.X)
        J = G @ R.T @ np.linalg.inv(R @ G @ R.T)
        U1, U2 = sample_joint_singular(model, restriction, beta, sigma, 1000, 3)
        expected = U1 @ (np.eye(4) - J @ R).T - J @ (R @ beta - r)
        assert np.abs(U2 - expected).max() <= 1e-15 * np.abs(expected).max()

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

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_noncentrality_raises(self, lam):
        with pytest.raises(ValueError, match=f"noncentrality lam .* got {lam}$"):
            inv_chisq_mean(5, lam)


class TestEllipticalInvQuadnormMean:
    @pytest.mark.parametrize("spec", [EllipticalSpec.dirac(),
                                      EllipticalSpec.gamma_mixture(5.0),
                                      EllipticalSpec.two_point(0.5, 2.0, 0.3)],
                             ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("mu_sq", [-1.0, np.nan, np.inf])
    def test_noncentrality_is_checked_once_for_every_kind(self, spec, mu_sq):
        # the caller's argument is named with the value it gave, not a
        # value scaled by a mixing atom
        with pytest.raises(ValueError, match=(
                f"^noncentrality mu_sq must be finite and nonnegative, got {mu_sq}$")):
            elliptical_inv_quadnorm_mean(spec, 4, mu_sq)

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
