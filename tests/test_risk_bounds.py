"""Risk moments, the quadratic decomposition, and every bound check."""

import multiprocessing
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from steinrule import (
    BoundReport,
    DivergentMomentError,
    EllipticalSpec,
    HFunction,
    JointMoments,
    LinearRestriction,
    biased_instance,
    bound_suite,
    check_born1,
    check_born2,
    check_corinterm,
    check_courant,
    check_elliptical_omega,
    check_prop_eta_omega,
    check_singular_omega,
    default_bound_suite,
    dominance_interval,
    estimate_risk_moments,
    identity_instance,
    mse_analytic,
    mse_empirical,
    optimal_c,
    restricted_instance,
    sample_joint_elliptical,
    sample_joint_gaussian,
    sample_joint_singular,
)
from steinrule import _rng, risk_bounds
from steinrule.risk_bounds import _stream, elliptical_suite, gaussian_suite, singular_suite

H_INV = HFunction.inverse_sq_norm()


def random_instance(k, seed, gamma_scale=1.0):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2 * k, 2 * k))
    V = M @ M.T + 0.5 * np.eye(2 * k)
    return JointMoments.from_covariances(
        gamma_scale * rng.normal(size=k), V[:k, :k], V[:k, k:], V[k:, k:])


class TestBoundReport:
    def test_compare_and_format(self):
        r = BoundReport.compare("cap", 1.0, 2.0, 0.1)
        assert r.holds and r.slack == pytest.approx(1.0)
        assert "cap" in str(r) and "holds" in str(r)
        v = BoundReport.compare("cap", 2.5, 2.0, 0.1)
        assert not v.holds and "VIOLATED" in str(v)

    def test_tolerance_soaks_noise(self):
        assert BoundReport.compare("cap", 2.05, 2.0, 0.1).holds


class TestEstimateRiskMoments:
    def test_identity_instance_constants(self):
        # both cross and squared moments sit at one half by symmetry
        m = identity_instance()
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 300_000, 1))
        assert mo.eta_h == pytest.approx(0.5, abs=3 * mo.se_eta_h)
        assert mo.omega_h == pytest.approx(0.5, abs=3 * mo.se_omega_h)
        assert mo.count == 300_000
        assert not mo.unreliable

    def test_inverse_sq_norm_views_bit_equal(self):
        m = random_instance(4, 2)
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 50_000, 3))
        assert mo.eta_h == mo.eta
        assert mo.omega_h == mo.omega
        assert mo.se_eta_h == mo.se_eta

    def test_cross_moment_within_absolute_envelope(self):
        for seed in range(6):
            m = random_instance(3 + seed % 3, 10 + seed)
            mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 30_000, seed))
            assert abs(mo.eta) <= mo.eta_ddag + 3 * (mo.se_eta + mo.se_eta_ddag)

    def test_deterministic_given_seed(self):
        m = random_instance(3, 20)
        a = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 10_000, 4))
        b = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 10_000, 4))
        assert a == b

    def test_low_rank_flagged_unreliable(self):
        model, restriction, beta, m = restricted_instance(q=2)
        mo = estimate_risk_moments(
            m, H_INV, *sample_joint_singular(model, restriction, beta, 1.0, 10_000, 5))
        assert mo.unreliable


class TestMseDecomposition:
    def test_zero_weight_is_base_risk(self):
        m = random_instance(3, 21)
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 50_000, 6))
        assert mse_analytic(m, mo, 0.0) == m.trace_A

    def test_interval_endpoints_meet_base_risk(self):
        m = random_instance(3, 22)
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 50_000, 7))
        c2 = 2.0 * optimal_c(mo.eta_h, mo.omega_h)
        assert mse_analytic(m, mo, c2) == pytest.approx(m.trace_A)

    def test_identity_optimum(self):
        m = identity_instance()
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 300_000, 8))
        c_star = optimal_c(mo.eta_h, mo.omega_h)
        assert c_star == pytest.approx(1.0, abs=0.05)
        assert mse_analytic(m, mo, c_star) == pytest.approx(2.5, abs=0.02)

    def test_dominance_inside_interval(self):
        for seed in (23, 24, 25):
            m = random_instance(4, seed)
            mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 50_000, seed))
            lo, hi = dominance_interval(mo.eta_h, mo.omega_h)
            for t in (0.1, 0.5, 0.9):
                c = lo + t * (hi - lo)
                if c != 0.0:
                    assert mse_analytic(m, mo, c) < m.trace_A

    def test_empirical_matches_analytic(self):
        # the decomposition identity, on fresh draws, across weights and c
        for seed, h in ((26, H_INV), (27, HFunction.smooth_inverse(2.0))):
            m = random_instance(3, seed)
            mo = estimate_risk_moments(m, h, *sample_joint_gaussian(m, 120_000, seed))
            se_mo = 2 * mo.se_eta_h + mo.se_omega_h
            fresh = sample_joint_gaussian(m, 120_000, seed + 100)
            for c in (-0.8, -0.2, 0.3, 1.0):
                emp, se = mse_empirical(m, h, c, *fresh)
                tol = 3 * (se + abs(c) * 2 * mo.se_eta_h + c * c * mo.se_omega_h)
                assert mse_analytic(m, mo, c) == pytest.approx(emp, abs=tol), (seed, c)

    def test_grid_minimum_at_optimum(self):
        m = identity_instance()
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 200_000, 28))
        c_star = optimal_c(mo.eta_h, mo.omega_h)
        grid = np.linspace(0.0, 2.0, 101)
        fresh = sample_joint_gaussian(m, 200_000, 29)
        values = [mse_empirical(m, H_INV, c, *fresh)[0] for c in grid[::10]]
        best = grid[::10][int(np.argmin(values))]
        assert abs(best - c_star) <= 0.2 + 1e-12

    def test_bias_shrinks_cross_moment(self):
        # a far-off competitor leaves less exploitable signal per draw
        m0 = identity_instance()
        m1 = biased_instance(gamma_norm=10.0)
        a = estimate_risk_moments(m0, H_INV, *sample_joint_gaussian(m0, 100_000, 30))
        b = estimate_risk_moments(m1, H_INV, *sample_joint_gaussian(m1, 100_000, 30))
        assert b.omega_h < a.omega_h
        assert abs(b.eta_h) < a.eta_h


class TestPropEtaOmega:
    def test_holds_on_instances(self):
        for inst in (identity_instance(), biased_instance(), random_instance(4, 31)):
            for h, q0 in ((H_INV, 1.0), (HFunction.smooth_inverse(2.0), 1.0),
                          (HFunction.smooth_inverse(4.0), 0.5)):
                mo = estimate_risk_moments(inst, h, *sample_joint_gaussian(inst, 40_000, 32))
                r_eta, r_omega = check_prop_eta_omega(mo, q0)
                assert r_eta.holds, str(r_eta)
                assert r_omega.holds, str(r_omega)
                assert r_eta.name == "eta-h-cap"
                assert r_omega.name == "omega-h-cap"


class TestBorn1:
    def test_holds_across_windows(self):
        m = identity_instance()
        U1, U2 = sample_joint_gaussian(m, 200_000, 33)
        for alpha in (0.5, 1.0, 2.0):
            r = check_born1(m, U1, U2, alpha)
            assert r.holds, str(r)
            assert r.name == "cross-term-small-window"

    def test_tiny_window_empties_the_mean(self):
        m = identity_instance()
        r = check_born1(m, *sample_joint_gaussian(m, 100_000, 34), 1e-6)
        assert r.lhs == 0.0

    def test_rejects_bad_alpha(self):
        m = identity_instance()
        with pytest.raises(ValueError):
            check_born1(m, *sample_joint_gaussian(m, 100, 35), 0.0)


@pytest.mark.parametrize("check", [check_born1, check_born2],
                         ids=["born1", "born2"])
@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_window_refuses_a_non_finite_alpha(check, alpha):
    # NaN gave a VIOLATED report with rhs NaN; inf gave vacuous passes
    m = identity_instance()
    with pytest.raises(ValueError,
                       match=f"^alpha must be positive and finite, got {alpha}$"):
        check(m, *sample_joint_gaussian(m, 100, 38), alpha)


class TestBorn2:
    def test_identity_constant(self):
        # cap at alpha=1: sqrt(2) * (3 + 3 + 0) / 2
        m = identity_instance()
        r = check_born2(m, *sample_joint_gaussian(m, 200_000, 36), 1.0)
        assert r.holds, str(r)
        assert r.name == "cross-term-tail"
        assert r.rhs == pytest.approx(3.0 * np.sqrt(2.0))

    def test_wide_window_empties_the_tail(self):
        m = identity_instance()
        r = check_born2(m, *sample_joint_gaussian(m, 100_000, 37), 1e3)
        assert r.lhs == 0.0

    def test_rejects_bad_alpha(self):
        m = identity_instance()
        with pytest.raises(ValueError):
            check_born2(m, *sample_joint_gaussian(m, 100, 38), -1.0)


class TestCorinterm:
    def test_identity_constant(self):
        m = identity_instance()
        mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 200_000, 39))
        r = check_corinterm(m, mo)
        assert r.holds, str(r)
        assert r.name == "absolute-cross-moment-cap"
        assert r.rhs == pytest.approx(3.5, abs=0.05)

    def test_randomized_instances(self):
        for seed in range(20):
            m = random_instance(3 + seed % 3, 200 + seed)
            mo = estimate_risk_moments(m, H_INV, *sample_joint_gaussian(m, 40_000, seed))
            r = check_corinterm(m, mo)
            assert r.holds, f"seed {seed}: {r}"


class TestCourant:
    def test_identity_matrix_sits_at_cap(self):
        reports = check_courant(np.eye(3), 2_000, 40)
        for r in reports:
            assert r.holds, str(r)
        assert reports[0].lhs == pytest.approx(1.0, rel=1e-12)

    def test_mixed_sign_diagonal(self):
        reports = check_courant(np.diag([1.0, -3.0]), 2_000, 41)
        assert reports[0].rhs == pytest.approx(3.0)
        for r in reports:
            assert r.holds, str(r)

    def test_random_nonsymmetric(self):
        rng = np.random.default_rng(42)
        for seed in range(5):
            C = rng.normal(size=(6, 6))
            for r in check_courant(C, 2_000, seed):
                assert r.holds, f"seed {seed}: {r}"

    @pytest.mark.parametrize("c", [3.0, 0.1, 7.3])
    def test_scaled_identity_holds_at_equality(self, c):
        # the symmetric and summed quotients equal their caps here, so
        # only the rounding tolerance keeps an ulp above from failing
        for r in check_courant(c * np.eye(3), 10_000, 0):
            assert r.holds, str(r)
            assert 0 < r.tolerance < 1e-13 * c

    @pytest.mark.parametrize("C", [1e308 * np.eye(2),
                                   [[1e308, -1e308], [2e307, 5e307]],
                                   1e-310 * np.eye(2)],
                             ids=["huge", "huge-nonsymmetric", "subnormal"])
    def test_extreme_scales_hold(self, C):
        C = np.asarray(C)
        unit = np.ldexp(1.0, np.frexp(np.max(np.abs(C)))[1] - 1)
        for r, ref in zip(check_courant(C, 10_000, 0),
                          check_courant(C / unit, 10_000, 0)):
            assert r.holds and np.isfinite([r.lhs, r.rhs]).all(), str(r)
            assert (r.lhs, r.rhs) == (ref.lhs * unit, ref.rhs * unit)

    def test_zero_matrix_holds(self):
        for r in check_courant(np.zeros((3, 3)), 100, 0):
            assert (r.lhs, r.rhs, r.tolerance, r.holds) == (0.0, 0.0, 0.0, True)

    SQUARE = "^C must be a nonempty square matrix, got shape "
    TRIALS = "^trials must be an integer of at least 1, got "

    @pytest.mark.parametrize("C, trials, match", [
        ([[np.inf, 0.0], [0.0, 1.0]], 10, "^C must be finite$"),
        ([[np.nan, 0.0], [0.0, 1.0]], 10, "^C must be finite$"),
        (np.zeros((0, 0)), 10, SQUARE + r"\(0, 0\)$"),
        (np.ones((2, 3)), 10, SQUARE + r"\(2, 3\)$"),
        ([1.0, 2.0], 10, SQUARE + r"\(2,\)$"),
        (np.eye(2), 0, TRIALS + "0$"),
        (np.eye(2), 10.0, TRIALS + "10.0$"),
        (np.eye(2), True, TRIALS + "True$"),
    ], ids=["inf", "nan", "empty", "2x3", "1-d", "zero-trials", "float-trials",
            "bool-trials"])
    def test_refuses_bad_input_by_name(self, C, trials, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                check_courant(C, trials, 0)

    def test_report_names(self):
        names = [r.name for r in check_courant(np.eye(2), 10, 43)]
        assert names == ["rayleigh-cap-symmetric", "rayleigh-cap-summed",
                         "rayleigh-cap-bilinear"]


class TestSingularOmega:
    def test_restricted_instance_with_inverse_shape(self):
        model, restriction, beta, m = restricted_instance()
        Lambda = np.linalg.inv(m.A)
        draws = sample_joint_singular(model, restriction, beta, 1.0, 200_000, 44)
        bound, mean_report = check_singular_omega(m, H_INV, Lambda, *draws)
        assert bound.holds, str(bound)
        assert bound.name == "singular-omega-cap"
        assert np.isfinite(bound.rhs)
        assert mean_report.holds, str(mean_report)
        assert mean_report.name == "difference-quadratic-form-mean"

    def test_rank_two_is_not_applicable(self):
        model, restriction, beta, m = restricted_instance(q=2)
        Lambda = np.linalg.inv(m.A)
        draws = sample_joint_singular(model, restriction, beta, 1.0, 20_000, 45)
        bound, _ = check_singular_omega(m, H_INV, Lambda, *draws)
        assert bound.holds
        assert np.isinf(bound.rhs)
        assert "not-applicable" in bound.name

    def test_non_idempotent_shape_raises(self):
        model, restriction, beta, m = restricted_instance()
        draws = sample_joint_singular(model, restriction, beta, 1.0, 1_000, 46)
        with pytest.raises(ValueError):
            check_singular_omega(m, H_INV, np.eye(m.k), *draws)

    @pytest.mark.parametrize("Lambda", [np.diag([1.0, 1.0, 1.0, np.inf]),
                                        np.full((4, 4), np.nan)])
    def test_non_finite_shape_is_refused(self, Lambda):
        model, restriction, beta, m = restricted_instance()
        draws = sample_joint_singular(model, restriction, beta, 1.0, 1_000, 46)
        with pytest.raises(ValueError, match="^Lambda must be finite$"):
            check_singular_omega(m, H_INV, Lambda, *draws)

    def test_indefinite_shape_near_the_float_maximum_is_refused(self):
        # Lambda + Lambda' overflows, and a NaN eigenvalue must not pass
        model, restriction, beta, m = restricted_instance()
        draws = sample_joint_singular(model, restriction, beta, 1.0, 1_000, 46)
        with pytest.raises(ValueError, match="^Lambda must be symmetric positive"):
            check_singular_omega(m, H_INV, np.diag([1e308, 1e308, 1e308, -1.0]),
                                 *draws)

    @pytest.mark.parametrize("Xi,gamma,what", [
        (np.full((2, 2), np.nan), np.zeros(2), "not idempotent"),
        (np.eye(2), np.array([np.nan, 0.0]), "does not fix the bias"),
    ])
    def test_nan_fails_the_projection_conditions(self, Xi, gamma, what):
        # the conditions read only Xi and gamma; a NaN in either must fail
        # them, not slip through a comparison that NaN makes False
        stub = SimpleNamespace(Xi=Xi, gamma=gamma)
        with pytest.raises(ValueError, match=what):
            risk_bounds._singular(stub, H_INV, np.eye(2))

    def test_unbounded_weight_rejected(self):
        model, restriction, beta, m = restricted_instance()
        draws = sample_joint_singular(model, restriction, beta, 1.0, 1_000, 47)
        with pytest.raises(ValueError):
            check_singular_omega(m, HFunction.one(), np.linalg.inv(m.A), *draws)


class TestEllipticalOmega:
    def test_reports_on_biased_instance(self):
        m = biased_instance()
        for spec in (EllipticalSpec.dirac(), EllipticalSpec.gamma_mixture(5.0)):
            draws = sample_joint_elliptical(m, spec, 150_000, 48)
            cap, lower, upper = check_elliptical_omega(m, spec, *draws)
            assert cap.holds, str(cap)
            assert cap.name == "elliptical-inverse-norm-cap"
            # identity-shaped difference: the cap is first-abs-moment / (q - 2)
            assert cap.rhs == pytest.approx(spec.first_abs_moment)
            assert lower.holds and upper.holds

    def test_strict_cap_away_from_center(self):
        m = biased_instance(gamma_norm=1.0)
        spec = EllipticalSpec.dirac()
        draws = sample_joint_elliptical(m, spec, 150_000, 49)
        cap, _, _ = check_elliptical_omega(m, spec, *draws)
        assert cap.lhs < cap.rhs - 3 * cap.tolerance

    def test_low_rank_raises(self):
        m = identity_instance(k=2)
        spec = EllipticalSpec.dirac()
        draws = sample_joint_elliptical(m, spec, 1_000, 50)
        with pytest.raises(DivergentMomentError):
            check_elliptical_omega(m, spec, *draws)


def _malformed_draws():
    U1, U2 = sample_joint_gaussian(identity_instance(3), 100, 51)
    return {"other-k": sample_joint_gaussian(identity_instance(5), 100, 51),
            "unequal-widths": (U1, U2[:, :2]),
            "unequal-rows": (U1, U2[:-1]),
            "1-d": (U1[0], U2[0])}


@pytest.mark.parametrize("case", list(_malformed_draws()))
@pytest.mark.parametrize("call", [
    lambda m, U1, U2: estimate_risk_moments(m, H_INV, U1, U2),
    lambda m, U1, U2: mse_empirical(m, H_INV, 0.5, U1, U2),
    lambda m, U1, U2: check_born1(m, U1, U2, 1.0),
    lambda m, U1, U2: check_born2(m, U1, U2, 1.0),
    # Lambda = I / 2 meets the projection conditions on Xi = 2 I
    lambda m, U1, U2: check_singular_omega(m, H_INV, 0.5 * np.eye(3), U1, U2),
    lambda m, U1, U2: check_elliptical_omega(m, EllipticalSpec.dirac(), U1, U2),
], ids=["estimate_risk_moments", "mse_empirical", "check_born1", "check_born2",
        "check_singular_omega", "check_elliptical_omega"])
def test_one_shot_checks_refuse_malformed_draws(call, case):
    # at k = 5 estimate_risk_moments returned a report, the checks met
    # numpy's matmul or broadcast errors, and mse_empirical never read m
    U1, U2 = _malformed_draws()[case]
    message = (f"U1 and U2 must be 2-d arrays of one shape with 3 columns, "
               f"got shapes {np.shape(U1)} and {np.shape(U2)}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(identity_instance(3), U1, U2)


class TestDefaultSuite:
    def test_all_hold_and_cover_every_check(self):
        reports = default_bound_suite(count=60_000, seed=51)
        assert all(r.holds for r in reports), [str(r) for r in reports if not r.holds]
        names = {r.name.split("[")[0] for r in reports}
        assert names >= {"eta-h-cap", "omega-h-cap", "cross-term-small-window",
                         "cross-term-tail", "absolute-cross-moment-cap",
                         "elliptical-inverse-norm-cap", "singular-omega-cap"}

    def test_draws_each_instance_once(self, monkeypatch):
        # one chunk: the Gaussian and elliptical sections share one 6-wide
        # normal draw; the singular instance draws its own 4-wide one
        calls, normals = [], _rng.normals

        def recorded(seed, count, dim, **kwargs):
            calls.append((seed, count, dim))
            return normals(seed, count, dim, **kwargs)

        samplers = {}

        def counted(name):
            sampler = getattr(risk_bounds, name)

            def wrapper(*args):
                samplers[name] = samplers.get(name, 0) + 1
                return sampler(*args)
            return wrapper

        monkeypatch.setattr(_rng, "normals", recorded)
        for name in ("sample_joint_gaussian", "sample_joint_elliptical",
                     "sample_joint_singular"):
            monkeypatch.setattr(risk_bounds, name, counted(name))
        default_bound_suite(count=2_000, seed=52)
        # seed 7 is the restricted instance's design
        assert sorted(calls) == [(7, 25, 3), (52, 2_000, 4), (52, 2_000, 6)]
        assert samplers == {"sample_joint_singular": 1}

    def test_single_draw_raises(self):
        with pytest.raises(ValueError, match="at least 2 draws"):
            default_bound_suite(count=1)

    @pytest.mark.parametrize("count", [20_000.0, True])
    @pytest.mark.parametrize("suite", [default_bound_suite,
                                       lambda count: bound_suite(count, 0)])
    def test_non_integer_count_is_refused(self, suite, count):
        with pytest.raises(ValueError, match=f"must be an integer, got {count!r}"):
            suite(count=count)

    @staticmethod
    def _refused_before_a_draw(monkeypatch, message, **suite):
        drawn = []
        monkeypatch.setattr(_rng, "normals", lambda *a, **kw: drawn.append(a))
        with pytest.raises(ValueError) as info:
            bound_suite(1000, 0, **suite)
        assert str(info.value) == message
        assert drawn == []

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, np.float64(3.0)])
    def test_dimension_is_refused_by_name(self, monkeypatch, k):
        self._refused_before_a_draw(
            monkeypatch, f"the dimension k must be an integer of at least 1, got {k!r}",
            k=k, mixing=(), restricted=None)

    @pytest.mark.parametrize("restricted", [(4.0, 3), (4, True), (3, 4), (4, 0),
                                            (25, 3), (30, 3)])
    def test_restricted_instance_is_refused_by_one_rule(self, monkeypatch, restricted):
        rk, q = restricted
        self._refused_before_a_draw(
            monkeypatch, f"the restricted instance needs integers 1 <= q <= k "
                         f"< 25, got k={rk!r}, q={q!r}", restricted=restricted)

    def test_largest_restricted_instance_runs(self):
        (label, reports), = bound_suite(1000, 0, mixing=(), restricted=(24, 3))[2:]
        assert label == "singular" and len(reports) == 2


class TestStreamedSuites:
    SEED = 53

    @staticmethod
    def _close(streamed, one_shot):
        assert len(streamed) == len(one_shot)
        for s, o in zip(streamed, one_shot):
            assert s.name.split("[")[0] == o.name.split("[")[0]
            assert s.holds == o.holds, (str(s), str(o))
            for field in ("lhs", "rhs", "tolerance"):
                assert getattr(s, field) == pytest.approx(
                    getattr(o, field), rel=1e-13, abs=0.0), (str(s), field)

    @pytest.fixture
    def record(self, monkeypatch):
        """Starts recording the (dim, count, start) of each _rng.normals
        call of the given seed; one thread, so they come in chunk order."""
        monkeypatch.setattr(_rng, "_worker_count", lambda: 1)

        def start(seed):
            calls, normals = [], _rng.normals

            def recorded(s, count, dim, stream=0, start=0):
                if s == seed:
                    calls.append((dim, count, start))
                return normals(s, count, dim, stream=stream, start=start)
            monkeypatch.setattr(_rng, "normals", recorded)
            return calls
        return start

    @staticmethod
    def _chunks(dim, k, count):
        return [(dim, hi - lo, lo) for lo, hi in _rng.chunks(count, 2 * k)]

    def test_gaussian_matches_one_draw(self, record):
        m = biased_instance()
        count = 3 * _rng.chunk_rows(2 * m.k) + 17
        U1, U2 = sample_joint_gaussian(m, count, self.SEED)
        one_shot = []
        moments = {}
        for h in (H_INV, HFunction.smooth_inverse(2.0)):
            moments[h.kind] = estimate_risk_moments(m, h, U1, U2)
            one_shot += check_prop_eta_omega(moments[h.kind], h.q0)
        one_shot += [check_born1(m, U1, U2, alpha) for alpha in (0.5, 1.0, 2.0)]
        one_shot += [check_born2(m, U1, U2, 1.0),
                     check_corinterm(m, moments[H_INV.kind])]
        calls = record(self.SEED)
        self._close(_stream([gaussian_suite(m, "b")], count, m.k, self.SEED)[0], one_shot)
        assert calls == self._chunks(2 * m.k, m.k, count)
        assert len(calls) == 4

    @staticmethod
    def _count(pieces, k):
        """A count tiled into `pieces` chunks of 2k-wide draws: 4 unequal
        ones, or 1 that holds every draw."""
        rows = _rng.chunk_rows(2 * k)
        return 3 * rows + 17 if pieces == 4 else rows

    def _same_bits(self, streamed, one_shot, label):
        # in one chunk a section and its one-shot check run one definition
        # on the same draws, so only the tag on the names differs
        assert self._bits(streamed) == self._bits(
            [replace(o, name=f"{o.name}[{label}]") for o in one_shot])

    @pytest.mark.parametrize("pieces", [4, 1], ids=["four-chunks", "one-chunk"])
    def test_elliptical_matches_one_draw(self, record, pieces):
        m, spec = biased_instance(), EllipticalSpec.gamma_mixture(5.0)
        count = self._count(pieces, m.k)
        one_shot = check_elliptical_omega(
            m, spec, *sample_joint_elliptical(m, spec, count, self.SEED))
        calls = record(self.SEED)
        streamed = _stream([elliptical_suite(m, spec, "e")], count, m.k,
                           self.SEED)[0]
        if pieces == 1:
            self._same_bits(streamed, one_shot, "e")
        else:
            self._close(streamed, one_shot)
        assert calls == self._chunks(2 * m.k, m.k, count)
        assert len(calls) == pieces

    @pytest.mark.parametrize("pieces", [4, 1], ids=["four-chunks", "one-chunk"])
    def test_singular_matches_one_draw(self, record, pieces):
        instance = restricted_instance()
        model, restriction, beta, ms = instance
        count = self._count(pieces, ms.k)
        one_shot = check_singular_omega(
            ms, H_INV, np.linalg.inv(ms.A),
            *sample_joint_singular(model, restriction, beta, model.sigma,
                                   count, self.SEED))
        calls = record(self.SEED)
        streamed = _stream([singular_suite(instance, "s")], count, ms.k,
                           self.SEED)[0]
        if pieces == 1:
            self._same_bits(streamed, one_shot, "s")
        else:
            self._close(streamed, one_shot)
        assert calls == self._chunks(ms.k, ms.k, count)
        assert len(calls) == pieces

    def test_default_suite_draws_the_normals_once_per_chunk(self, record):
        count = 3 * _rng.chunk_rows(6) + 17
        calls = record(0)
        default_bound_suite(count=count, seed=0)
        # 4 chunks; the 4 Gaussian and elliptical sections share each
        # chunk's 6-wide draw, the singular instance draws 4 wide
        assert [c for c in calls if c[0] == 6] == self._chunks(6, 3, count)
        assert len([c for c in calls if c[0] == 6]) == 4
        assert [c for c in calls if c[0] == 4] == self._chunks(4, 4, count)
        assert len(calls) == 8

    def test_default_suite_matches_each_section_alone(self):
        count = 3 * _rng.chunk_rows(6) + 17
        biased = biased_instance()
        sections = [gaussian_suite(identity_instance(), "identity"),
                    gaussian_suite(biased, "biased"),
                    elliptical_suite(biased, EllipticalSpec.dirac(), "biased/dirac"),
                    elliptical_suite(biased, EllipticalSpec.gamma_mixture(5.0),
                                     "biased/gamma-nu5"),
                    singular_suite(restricted_instance(), "restricted-q3")]
        alone = [_stream([s], count, 3, 0)[0] for s in sections]
        flat = [r for reports in alone for r in reports]
        assert self._bits(default_bound_suite(count=count, seed=0)) == self._bits(flat)
        named = bound_suite(count, 0)
        assert [name for name, _ in named] == ["identity", "biased", "elliptical",
                                               "elliptical", "singular"]
        assert [self._bits(r) for _, r in named] == [self._bits(r) for r in alone]
        # a scaled section ahead of the unscaled ones leaves their normals as drawn
        together = _stream(sections[::-1], count, 3, 0)[::-1]
        assert [self._bits(r) for r in together] == [self._bits(r) for r in alone]

    def test_suite_labels_each_mixing_law(self):
        mixing = (EllipticalSpec.two_point(0.5, 2.0, 0.3),
                  EllipticalSpec.gamma_mixture(7.5))
        named = bound_suite(2_000, 0, k=4, mixing=mixing, restricted=None)
        assert [name for name, _ in named] == ["identity", "biased",
                                               "elliptical", "elliptical"]
        labels = [{r.name.split("[")[1] for r in reports} for _, reports in named[2:]]
        assert labels == [{"biased/two-point-z0.5-2-w0.3]"}, {"biased/gamma-nu7.5]"}]

    @pytest.mark.parametrize("suite, instance, k", [
        (gaussian_suite, identity_instance(), 3),
        (singular_suite, restricted_instance(), 4),
    ])
    def test_memory_flat_in_count(self, suite, instance, k, monkeypatch):
        # one draw of 200 000 held 32 MB (Gaussian) and 125 MB (singular);
        # a suite holds one chunk per thread
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            _stream([suite(instance, "x")], 200_000, k, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"

    @staticmethod
    def _bits(reports):
        return [(r.name, r.holds) + tuple(float(getattr(r, f)).hex() for f in
                                          ("lhs", "rhs", "slack", "tolerance"))
                for r in reports]

    def test_numpy_integer_count_matches_int(self):
        assert (self._bits(default_bound_suite(count=np.int64(20_000), seed=0))
                == self._bits(default_bound_suite(count=20_000, seed=0)))

    def test_suite_does_not_depend_on_the_thread_count(self, monkeypatch):
        count = 3 * _rng.chunk_rows(6) + 17
        runs = []
        interval = sys.getswitchinterval()
        try:
            for threads in (1, 2, 8):
                monkeypatch.setattr(_rng, "_worker_count", lambda: threads)
                # more threads than CPUs, switching often
                sys.setswitchinterval(1e-6 if threads == 8 else interval)
                runs.append(self._bits(default_bound_suite(count=count, seed=0)))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_reproduces_the_reports(self, monkeypatch):
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        count = 3 * _rng.chunk_rows(6) + 17
        reports = self._bits(default_bound_suite(count=count, seed=0))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(
            self._bits(default_bound_suite(count=count, seed=0))))
        with warnings.catch_warnings():
            # on Python 3.12+ os.fork warns when the parent runs other OS
            # threads, OpenBLAS's among them
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            # a child that waited on a thread of its parent's would hang
            assert recv.poll(60), "the forked child sent no reports"
            assert recv.recv() == reports
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert child.exitcode == 0

    @pytest.mark.parametrize("k", [3, 5, 6, 8])
    def test_suite_runs_and_holds_at_every_k(self, k):
        # the (4, 3) restricted instance is drawn on the pass's k-chunks
        named = bound_suite(20_000, 0, k=k)
        reports = [r for _, section in named for r in section]
        assert all(r.holds for r in reports), [str(r) for r in reports if not r.holds]
        alone = _stream([singular_suite(restricted_instance(), "restricted-q3")],
                        20_000, k, 0)[0]
        assert [self._bits(r) for name, r in named if name == "singular"] == [
            self._bits(alone)]

    def test_sections_of_other_dimensions_share_a_pass(self):
        # k = 3 and k = 5 pad to strides 8 and 12; the pass's k tiles both
        sections = [gaussian_suite(identity_instance(3), "a"),
                    gaussian_suite(identity_instance(5), "b")]
        together = _stream(sections, 100_000, 5, 0)
        alone = [_stream([s], 100_000, 5, 0)[0] for s in sections]
        assert [self._bits(r) for r in together] == [self._bits(r) for r in alone]

    def test_elliptical_refuses_before_drawing(self, record):
        calls = record(0)
        with pytest.raises(DivergentMomentError):
            elliptical_suite(identity_instance(k=2), EllipticalSpec.dirac(), "e")
        assert calls == []
