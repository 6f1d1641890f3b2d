"""Analytic and Monte Carlo risk moments of the combined estimator, and
numerical verification of every dominance condition and inequality bound
the theory provides: moment caps, truncated cross-term bounds, the
Rayleigh-quotient caps, and the singular and elliptical extensions."""

import numbers
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _rng
from .core_model import (
    JointMoments,
    LinearModel,
    LinearRestriction,
    joint_moments_restricted,
)
# every sampler stays bound here, where the benchmark's tracer wraps it
from .distributions import (
    DIRAC_AT_ONE,
    GAMMA_MIXTURE,
    TWO_POINT_MIXTURE,
    DivergentMomentError,
    EllipticalSpec,
    joint_map,
    sample_joint_elliptical,
    sample_joint_gaussian,
    sample_joint_singular,
)
from .shrinkage import INVERSE_SQ_NORM, HFunction, apply_rule

DEFAULT_SEED = 20260822


@dataclass(frozen=True)
class RiskMoments:
    """Monte Carlo estimates of the five risk moments on shared draws.

    eta_h and omega_h drive the quadratic risk decomposition for a given
    weight; eta, eta_ddag, omega are their factor-coordinate counterparts
    entering the bounds. unreliable flags factor dimension q <= 2, where
    the inverse moments may not exist.
    """

    eta_h: float
    omega_h: float
    eta: float
    eta_ddag: float
    omega: float
    se_eta_h: float
    se_omega_h: float
    se_eta: float
    se_eta_ddag: float
    se_omega: float
    count: int
    unreliable: bool = False


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    tolerance: float

    @classmethod
    def compare(cls, name, lhs, rhs, tolerance=0.0):
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(name, lhs, rhs, lhs <= rhs + tolerance, rhs - lhs, tolerance)

    def __str__(self):
        state = "holds" if self.holds else "VIOLATED"
        return (f"{self.name}: lhs={self.lhs:.6g} rhs={self.rhs:.6g} "
                f"slack={self.slack:.3g} tol={self.tolerance:.3g} [{state}]")


def _is_int(n):
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _need_two(n):
    if not _is_int(n):
        raise ValueError(f"the draw count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least 2 draws for a mean and its "
                         f"standard error, got {n}")


def _once(m, U1, U2, terms, reports):
    """A one-shot check or estimate: reports(stats, count) from the (mean,
    se) of each row of terms(_Draws(m, U1, U2)), all draws at once. A suite
    section runs the same pair a chunk at a time, so on one chunk the two
    agree bitwise."""
    rows = terms(_Draws(m, U1, U2))
    _need_two(len(rows[0]))
    return reports(_rng.mean_se([_rng.moments(rows)]), len(rows[0]))


# One instance's checks in a suite pass. draws(normals, seed, lo, hi) gives
# the _Draws of an index range, shared by every section of an equal key,
# with normals the chunk's cache of standard normals; terms(d) gives the
# per-draw rows and reports(stats, count) the reports from their (mean, se).
_Section = namedtuple("_Section", "key draws terms reports")


def _stream(sections, count, k, seed):
    """Each section's reports from one pass over count draws of seed, tiled
    once by _rng.chunks(count, 2k). Per chunk each key draws once, and each
    section reduces its rows to a part before the next builds its own; the
    samplers address draws by index, so the chunks concatenate to one big
    draw.

    The chunks run on _rng.run_chunks, one thread per CPU, and each
    section pools its parts in chunk order, so a section's reports depend
    on (count, k, seed) alone: not on the thread count, nor on which other
    sections share the pass."""
    shared = {}
    for i, s in enumerate(sections):
        shared.setdefault(s.key, []).append(i)

    def reduce_chunk(lo, hi):
        normals, parts = {}, [None] * len(sections)
        for members in shared.values():
            d = sections[members[0]].draws(normals, seed, lo, hi)
            for i in members:
                parts[i] = _rng.moments(sections[i].terms(d))
        return parts

    parts = _rng.run_chunks(reduce_chunk, count, 2 * k)
    return [s.reports(_rng.mean_se(section_parts), count)
            for s, section_parts in zip(sections, zip(*parts))]


def _joint(m, spec):
    """Key and draws of (U1, U2) on m under the scale mixture spec, from the
    chunk's 2k-wide normals, drawn once for all sections of m's k."""
    def draws(normals, seed, lo, hi):
        if m.k not in normals:
            normals[m.k] = _rng.normals(seed, hi - lo, 2 * m.k,
                                        stream=_rng.STREAM_NOISE, start=lo)
        return _Draws(m, *joint_map(m, spec, normals[m.k], seed, lo))
    return ("joint", id(m), spec), draws


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


class _Draws:
    """One batch of (U1, U2), both 2-d, of one shape, with m.k columns, and
    the per-draw quantities the checks share, each computed once, on first
    use. The factor-coordinate terms use the identity P Z = U1 - U2 (true
    almost surely, also in the singular case), so the cross term is
    U1'(U1-U2) / ||U1-U2||^2."""

    def __init__(self, m, U1, U2):
        s1, s2 = np.shape(U1), np.shape(U2)
        if not (len(s1) == 2 and s1 == s2 and s1[1] == m.k):
            raise ValueError(f"U1 and U2 must be 2-d arrays of one shape with "
                             f"{m.k} columns, got shapes {s1} and {s2}")
        self.m, self.U1, self.U2 = m, U1, U2
        self.diff = U1 - U2
        self.sq = _rowdot(self.diff, self.diff)

    @cached_property
    def cross(self):
        return _rowdot(self.U1, self.diff)

    @cached_property
    def inv_sq(self):
        with np.errstate(divide="ignore"):
            return 1.0 / self.sq

    @cached_property
    def eta(self):
        return self.cross * self.inv_sq

    @cached_property
    def eta_ddag(self):
        return np.abs(self.cross) * self.inv_sq

    @cached_property
    def zz(self):
        """Squared norm of the factor coordinates Z of the difference."""
        Z = self.m.factor_coords(self.diff)
        return _rowdot(Z, Z)

    @cached_property
    def window_sq(self):
        """||U1||^2 + ||Z||^2, which the cross-term bounds split at alpha^2."""
        return _rowdot(self.U1, self.U1) + self.zz


def _h_terms(d, h):
    """Per draw: the eta_h and omega_h terms of weight h. For the
    inverse-square-norm weight these are the eta and omega arrays
    themselves, keeping the two views bit-equal."""
    if h.kind == INVERSE_SQ_NORM:
        return d.eta, d.inv_sq
    hv = h._values_from(d.sq)
    return hv * d.cross, (hv * hv) * d.sq


def _risk_moments(m, count, stats):
    """RiskMoments from the (mean, se) of eta_h, omega_h, eta, eta_ddag and
    omega, in that order."""
    means, ses = zip(*stats)
    return RiskMoments(*means, *ses, count=count, unreliable=m.q <= 2)


def estimate_risk_moments(m, h, U1, U2):
    """Estimate all five moments from one shared set of draws (U1, U2)."""
    return _once(m, U1, U2, lambda d: (*_h_terms(d, h), d.eta, d.eta_ddag, d.inv_sq),
                 lambda stats, count: _risk_moments(m, count, stats))


def mse_analytic(m, moments, c):
    """Risk of the combined estimator from the quadratic decomposition.

    c is the shrink weight: positive c pulls the base estimate toward the
    competitor by c times the weight function. The combination rule in
    apply_rule adds c*h*(base - competitor), so a shrink weight c there
    is the coefficient -c.
    """
    return m.trace_A - 2.0 * c * moments.eta_h + c * c * moments.omega_h


def mse_empirical(m, h, c, U1, U2):
    """Mean squared distance from the truth over the draws, with its SE.

    Takes the same shrink-weight c as mse_analytic; the two agree within
    Monte Carlo error for every c, which is the decomposition identity.
    """
    def terms(d):
        est = apply_rule(d.U1, d.U2, h, -c)
        return (_rowdot(est, est),)
    return _once(m, U1, U2, terms, lambda stats, count: stats[0])


def check_prop_eta_omega(moments, q0):
    """The h-moments against their factor-coordinate caps scaled by q0."""
    r_eta = BoundReport.compare(
        "eta-h-cap", abs(moments.eta_h), q0 * moments.eta_ddag,
        3.0 * (moments.se_eta_h + q0 * moments.se_eta_ddag))
    r_omega = BoundReport.compare(
        "omega-h-cap", moments.omega_h, q0 * q0 * moments.omega,
        3.0 * (moments.se_omega_h + q0 * q0 * moments.se_omega))
    return r_eta, r_omega


def _window_core(d, alpha, side):
    """Per draw: the eta_ddag term |cross| / sq where side(window_sq,
    alpha^2) holds, else 0; side is np.less_equal for the small window,
    np.greater for the tail."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return np.where(side(d.window_sq, alpha * alpha), d.eta_ddag, 0.0)


def _born1_report(m, alpha, small, omega):
    (lhs, se_lhs), (omega_hat, se_omega) = small, omega
    scale = 0.5 * alpha * alpha * m.psi1
    return BoundReport.compare("cross-term-small-window", lhs, scale * omega_hat,
                               3.0 * (se_lhs + scale * se_omega))


def check_born1(m, U1, U2, alpha):
    """Cross term restricted to the small-norm window, against the
    window-squared cap alpha^2 psi1 omega / 2."""
    return _once(m, U1, U2, lambda d: (_window_core(d, alpha, np.less_equal), d.inv_sq),
                 lambda stats, count: _born1_report(m, alpha, *stats))


def _born2_report(m, alpha, tail):
    lhs, se_lhs = tail
    mu_sq = float(m.mu @ m.mu)
    rhs = m.psi1 * (m.trace_A + m.q + mu_sq) / (alpha * alpha * m.psi0)
    return BoundReport.compare("cross-term-tail", lhs, rhs, 3.0 * se_lhs)


def check_born2(m, U1, U2, alpha):
    """Cross term outside the window, against the analytic tail cap
    psi1 (trace A + q + mu'mu) / (alpha^2 psi0)."""
    return _once(m, U1, U2, lambda d: (_window_core(d, alpha, np.greater),),
                 lambda stats, count: _born2_report(m, alpha, *stats))


def check_corinterm(m, moments):
    """The absolute cross moment against its finite analytic cap."""
    mu_sq = float(m.mu @ m.mu)
    rhs = moments.omega + m.psi1**2 * (m.trace_A + m.q + mu_sq) / (2.0 * m.psi0)
    tol = 3.0 * (moments.se_eta_ddag + moments.se_omega)
    return BoundReport.compare("absolute-cross-moment-cap", moments.eta_ddag, rhs, tol)


def check_courant(C, trials, seed):
    """Rayleigh-quotient caps on random vectors: the symmetric-part
    quadratic form, the same through the summed matrix, and the bilinear
    form against the off-diagonal block embedding. C is scaled by 2^(1-e),
    e being np.frexp's exponent of c = max |C_ij|, exactly and clear of
    overflow and underflow; lhs and rhs are scaled back. The caps are exact,
    so the tolerance is the forward error of the computed quotients (Higham
    2002, section 3.1): with u = eps/2, x'Cx is within gamma_2m m c x'x, x'x
    within relative gamma_m, the quotient at most ||C||_2 <= m c and the
    division adds u, so each quotient is within m c gamma_(3m+1) <= m c
    (3m+1) eps, the bilinear one within half that."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
        raise ValueError(f"C must be a nonempty square matrix, got shape "
                         f"{C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("C must be finite")
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got "
                         f"{trials!r}")
    m = C.shape[0]
    c = float(np.max(np.abs(C)))
    scale = np.ldexp(1.0, np.frexp(c)[1] - 1) if c > 0 else 1.0
    C = C / scale
    tol = c * m * (3 * m + 1) * np.finfo(float).eps
    x = _rng.normals(seed, trials, m, stream=0)
    y = _rng.normals(seed, trials, m, stream=1)
    xx, yy = _rowdot(x, x), _rowdot(y, y)
    quad = np.max(np.abs(_rowdot(x @ C, x)) / xx)
    bilinear = np.max(np.abs(_rowdot(y, x @ C.T)) / (xx + yy))
    zero = np.zeros((m, m))
    B0 = np.block([[zero, C.T], [C, zero]])
    caps = (("rayleigh-cap-symmetric", quad, 1.0, 0.5 * (C + C.T)),
            ("rayleigh-cap-summed", quad, 0.5, C + C.T),
            ("rayleigh-cap-bilinear", bilinear, 0.5, B0))
    return tuple(BoundReport.compare(
        name, lhs * scale,
        half * float(np.max(np.abs(np.linalg.eigvalsh(M)))) * scale, tol)
        for name, lhs, half, M in caps)


def _singular(m, h, Lambda, label=None):
    """The singular check as (terms, reports) tagged with label: per draw
    the omega_h term and D' LXL D, LXL = Lambda Xi Lambda, against the trace
    cap and the mean q + noncentrality. Before anything is drawn, Lambda
    and h must meet the theory's conditions: Lambda symmetric positive
    definite with Lambda^(1/2) Xi Lambda^(1/2) idempotent and fixing the
    bias, and h bounded (every weight is a function of the difference)."""
    Lambda = np.asarray(Lambda, dtype=float)
    if not np.isfinite(Lambda).all():
        raise ValueError("Lambda must be finite")
    vals, vecs = np.linalg.eigh(0.5 * Lambda + 0.5 * Lambda.T)
    if not vals[0] > 0:
        raise ValueError("Lambda must be symmetric positive definite")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    half_form = root @ m.Xi @ root
    # written as "not err <= tol" so that a NaN error fails the test
    if not np.abs(half_form @ half_form - half_form).max() <= 1e-8:
        raise ValueError("Lambda^(1/2) Xi Lambda^(1/2) is not idempotent")
    LXL = Lambda @ m.Xi @ Lambda
    if not np.abs(LXL @ m.gamma - Lambda @ m.gamma).max() <= 1e-8:
        raise ValueError("Lambda Xi Lambda does not fix the bias under Lambda")
    if not (np.isfinite(h.q0) and h.q0 > 0):
        raise ValueError("weight needs a finite positive bound constant")
    target = m.q + float(m.gamma @ LXL @ m.gamma)

    def reports(stats, count):
        (omega_h_hat, se), (qf_mean, qf_se) = stats
        if m.q <= 2:
            bound = BoundReport("singular-omega-cap[not-applicable-q<=2]",
                                omega_h_hat, np.inf, True, np.inf, 0.0)
        else:
            rhs = h.q0 * float(np.trace(LXL)) / (m.q - 2)
            bound = BoundReport.compare("singular-omega-cap", omega_h_hat, rhs, 3.0 * se)
        mean = BoundReport.compare("difference-quadratic-form-mean",
                                   abs(qf_mean - target), 0.0, 3.0 * qf_se)
        return _tag(bound, label), _tag(mean, label)
    return lambda d: (_h_terms(d, h)[1], _rowdot(d.diff @ LXL, d.diff)), reports


def check_singular_omega(m, h, Lambda, U1, U2):
    """Curvature moment of a bounded weight against the trace cap that the
    singular theory gives under the projection conditions on Lambda, and a
    distributional cross-check: the quadratic form of the difference under
    Lambda Xi Lambda must average to q + noncentrality. _singular's pair."""
    return _once(m, U1, U2, *_singular(m, h, Lambda))


def _elliptical(m, spec, label=None):
    """The elliptical check as (terms, reports) tagged with label: per draw
    1 / ||Z||^2 and 1 / ||U1 - U2||^2, against the mixing-mean cap and the
    eigenvalue sandwich. q <= 2 is refused before anything is drawn."""
    if m.q <= 2:
        raise DivergentMomentError(
            f"inverse norm moment needs factor dimension >= 3, got q={m.q}")
    cap, lam_min, lam_max = spec.first_abs_moment / (m.q - 2), m.psi0, m.psi1 ** 2

    def reports(stats, count):
        (inv_zz_hat, se_zz), (omega_hat, se_om) = stats
        return tuple(_tag(rep, label) for rep in (
            BoundReport.compare("elliptical-inverse-norm-cap",
                                inv_zz_hat, cap, 3.0 * se_zz),
            BoundReport.compare("omega-sandwich-lower", inv_zz_hat / lam_max,
                                omega_hat, 3.0 * (se_zz / lam_max + se_om)),
            BoundReport.compare("omega-sandwich-upper", omega_hat,
                                inv_zz_hat / lam_min, 3.0 * (se_om + se_zz / lam_min))))
    return lambda d: (1.0 / d.zz, d.inv_sq), reports


def check_elliptical_omega(m, spec, U1, U2):
    """Inverse squared norm of the factor coordinates under draws from the
    scale mixture spec, against the mixing-mean cap, plus the eigenvalue
    sandwich tying it to the curvature moment: _elliptical's three reports."""
    return _once(m, U1, U2, *_elliptical(m, spec))


def identity_instance(k=3):
    """Base and competitor independent, unit covariance: biased at zero bias."""
    return biased_instance(k, 0.0)


def biased_instance(k=3, gamma_norm=1.0):
    """Identity blocks with the competitor biased along the first axis."""
    gamma = np.zeros(k)
    gamma[:1] = gamma_norm
    eye = np.eye(k)
    return JointMoments.from_covariances(gamma, eye, np.zeros((k, k)), eye)


RESTRICTED_ROWS = 25


def restricted_instance(k=4, q=3):
    """A fixed design (RESTRICTED_ROWS rows, design seed 7, sigma = 1) with
    intercept plus a rank-q restriction satisfied by the truth, so the
    competitor is unbiased and the factor is singular. k and q must be
    integers with 1 <= q <= k < RESTRICTED_ROWS.

    Returns (model, restriction, beta_true, moments).
    """
    if not (_is_int(k) and _is_int(q) and 1 <= q <= k < RESTRICTED_ROWS):
        raise ValueError(f"the restricted instance needs integers 1 <= q <= k "
                         f"< {RESTRICTED_ROWS}, got k={k!r}, q={q!r}")
    g = _rng.normals(7, RESTRICTED_ROWS, k - 1, stream=_rng.STREAM_NOISE)
    X = np.column_stack([np.ones(RESTRICTED_ROWS), 1.0 + g])
    beta_true = np.ones(k)
    restriction = LinearRestriction(np.eye(q, k), np.eye(q, k) @ beta_true)
    model = LinearModel(X, X @ beta_true, 1.0)
    moments = joint_moments_restricted(model, restriction, beta_true)
    return model, restriction, beta_true, moments


def _tag(report, label):
    return report if label is None else replace(report, name=f"{report.name}[{label}]")


def gaussian_suite(m, label):
    """The section of every Gaussian-law check on one instance, tagged with
    label: the h-moment caps for the inverse-square-norm and
    smooth-inverse-2 weights, the windowed cross-term bounds, and the
    absolute cross-moment cap. Each chunk gives every per-draw term once;
    for the inverse-square-norm weight eta_h and omega_h are eta and
    omega."""
    h_inv, h_smooth = HFunction.inverse_sq_norm(), HFunction.smooth_inverse(2.0)
    alphas = (0.5, 1.0, 2.0)

    def terms(d):
        return (d.eta, d.eta_ddag, d.inv_sq, *_h_terms(d, h_smooth),
                *(_window_core(d, alpha, np.less_equal) for alpha in alphas),
                _window_core(d, 1.0, np.greater))

    def reports(stats, count):
        eta, eta_ddag, omega, eta_s, omega_s, *small, tail = stats
        out, moments = [], {}
        for h, hname, h_stats in ((h_inv, "inverse-sq-norm", (eta, omega)),
                                  (h_smooth, "smooth-inverse-2", (eta_s, omega_s))):
            moments[hname] = _risk_moments(m, count, (*h_stats, eta, eta_ddag, omega))
            out += [_tag(rep, f"{label}/{hname}")
                    for rep in check_prop_eta_omega(moments[hname], h.q0)]
        out += [_tag(_born1_report(m, alpha, st, omega), f"{label}/alpha={alpha:g}")
                for alpha, st in zip(alphas, small)]
        out.append(_tag(_born2_report(m, 1.0, tail), f"{label}/alpha=1"))
        out.append(_tag(check_corinterm(m, moments["inverse-sq-norm"]), label))
        return out
    return _Section(*_joint(m, EllipticalSpec.dirac()), terms, reports)


def elliptical_suite(m, spec, label):
    """The section of check_elliptical_omega under the scale mixture spec:
    _elliptical's pair, tagged with label, a chunk at a time; q <= 2 is
    refused before anything is drawn."""
    terms, reports = _elliptical(m, spec, label)
    return _Section(*_joint(m, spec), terms, lambda *a: list(reports(*a)))


def singular_suite(instance, label):
    """The section of check_singular_omega on a restricted instance
    (model, restriction, beta_true, moments), with Lambda = A^-1 and the
    inverse-square-norm weight: _singular's pair, tagged with label, on its
    own k-wide sample_joint_singular a chunk at a time."""
    model, restriction, beta_true, ms = instance
    terms, reports = _singular(ms, HFunction.inverse_sq_norm(),
                               np.linalg.inv(ms.A), label)

    def draws(normals, seed, lo, hi):
        return _Draws(ms, *sample_joint_singular(model, restriction, beta_true,
                                                 model.sigma, hi - lo, seed, lo))
    return _Section(("singular", id(ms)), draws, terms, lambda *a: list(reports(*a)))


_MIXING_LABELS = {DIRAC_AT_ONE: "dirac", GAMMA_MIXTURE: "gamma-nu{nu:g}",
                  TWO_POINT_MIXTURE: "two-point-z{z1:g}-{z2:g}-w{w:g}"}


def bound_suite(count, seed, k=3,
                mixing=(EllipticalSpec.dirac(), EllipticalSpec.gamma_mixture(5.0)),
                restricted=(4, 3)):
    """The bound suite as (section, reports) pairs from one pass over count
    draws of seed, tiled by k: Gaussian checks on the identity and biased
    instances of dimension k, an elliptical section on the biased instance
    per mixing law, and the singular caps on the restricted instance
    restricted = (rk, q) unless that is None. Every input is checked, and
    every section built, before anything is drawn.
    The strict elliptical cap runs on the biased instance: at zero bias
    the plain-Gaussian cap is an equality, which no finite-sample check
    can sit strictly below."""
    _need_two(count)
    if not (_is_int(k) and k >= 1):
        raise ValueError(f"the dimension k must be an integer of at least 1, "
                         f"got {k!r}")
    biased = biased_instance(k)
    sections = [("identity", gaussian_suite(identity_instance(k), "identity")),
                ("biased", gaussian_suite(biased, "biased"))]
    for spec in mixing:
        label = "biased/" + _MIXING_LABELS[spec.kind].format(**vars(spec))
        sections.append(("elliptical", elliptical_suite(biased, spec, label)))
    if restricted is not None:
        sections.append(("singular", singular_suite(restricted_instance(*restricted),
                                                    f"restricted-q{restricted[1]}")))
    names, built = zip(*sections)
    return list(zip(names, _stream(built, count, k, seed)))


def default_bound_suite(count=10**6, seed=DEFAULT_SEED):
    """Every inequality check on the standard instance set, in a fixed
    order: bound_suite's defaults, flattened. All reports should hold."""
    return [rep for _, reports in bound_suite(count, seed) for rep in reports]
