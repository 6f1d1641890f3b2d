"""Analytic and Monte Carlo risk moments of the combined estimator, and
numerical verification of every dominance condition and inequality bound
the theory provides: moment caps, truncated cross-term bounds, the
Rayleigh-quotient caps, and the singular and elliptical extensions."""

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from . import _rng
from .core_model import (
    JointMoments,
    LinearModel,
    LinearRestriction,
    joint_moments_restricted,
)
# the Gaussian and elliptical samplers stay bound here, where the
# benchmark's tracer wraps every sampler by name
from .distributions import (
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


def _need_two(n):
    if n < 2:
        raise ValueError(f"need at least 2 draws for a mean and its "
                         f"standard error, got {n}")


def _merge(a, b):
    """Count, mean and centred sum of squares of two parts, per row, by the
    pairwise update of Chan, Golub and LeVeque (1979)."""
    (na, ma, m2a), (nb, mb, m2b) = a, b
    n = na + nb
    with np.errstate(invalid="ignore"):
        delta = mb - ma
        # a row holding inf merges its sums, so it stays inf as in np.mean
        mean = np.where(np.isfinite(delta), ma + delta * (nb / n),
                        (na * ma + nb * mb) / n)
        return n, mean, m2a + m2b + delta * delta * (na * nb / n)


class _Running:
    """Count, mean and centred sum of squares of each row of terms fed in
    chunks of shape (rows, draws). Chunks are merged pairwise, equal
    numbers of chunks at a time (Chan, Golub and LeVeque's pairwise
    algorithm), so rounding grows with the log of the chunk count. Every
    chunk is centred on the first chunk's means, so a row far from zero
    keeps its digits."""

    def __init__(self):
        self.parts = []    # (chunks, (n, mean, m2)), chunks halving down
        self.shift = None

    def add(self, rows):
        self.add_part(self.part(rows))

    def part(self, rows):
        """(n, mean, m2) of one chunk about the shift, which the first
        chunk sets; once it is set, safe to call from several threads at
        once."""
        terms = np.stack(rows)
        if self.shift is None:
            first = terms.mean(axis=1)
            self.shift = np.where(np.isfinite(first), first, 0.0)
        terms -= self.shift[:, None]
        mean = terms.mean(axis=1)
        terms -= mean[:, None]
        terms *= terms
        return terms.shape[1], mean, terms.sum(axis=1)

    def add_part(self, part):
        """Merge the next chunk's part, in chunk order."""
        chunks = 1
        while self.parts and self.parts[-1][0] == chunks:
            part = _merge(self.parts.pop()[1], part)
            chunks *= 2
        self.parts.append((chunks, part))

    def mean_se(self):
        """(mean, standard error of the mean) per row."""
        n = sum(part[0] for _, part in self.parts)
        _need_two(n)
        _, mean, m2 = reduce(_merge, [part for _, part in self.parts])
        se = np.sqrt(m2 / (n - 1)) / np.sqrt(n)
        return [(float(mu), float(s)) for mu, s in zip(self.shift + mean, se)]


def _reduce(rows):
    """(mean, se) of each per-draw row, all draws at once."""
    acc = _Running()
    acc.add(rows)
    return acc.mean_se()


# One instance's checks in a suite pass. draws(normals, lo, hi) gives the
# _Draws of an index range, shared by every section of an equal key, with
# normals the chunk's cache of standard normals; k is the dimension of U1;
# terms(d) gives the per-draw rows and reports(stats, count) the reports
# from the rows' (mean, se).
_Section = namedtuple("_Section", "key draws k terms reports")


def _stream(sections, count):
    """Each section's reports from one pass over count draws, tiled once by
    _rng.chunks(count, 2k). Per chunk each key draws once, and each section
    reduces its rows to a part before the next builds its own; the samplers
    address draws by index, so the chunks concatenate to one big draw.

    The first chunk is reduced on the calling thread and sets every
    section's shift; the others run on _rng.run_chunks, one thread per CPU,
    and each section merges its parts in chunk order, so the reports do
    not depend on the thread count, nor on which other sections share the
    pass. Re-chunking a section would change its bits, so sections with
    different chunk ranges are refused."""
    _need_two(count)
    if len({_rng.chunk_rows(2 * s.k) for s in sections}) > 1:
        raise ValueError("the sections of one pass need equal chunk ranges")
    shared, accs = {}, [_Running() for _ in sections]
    for i, s in enumerate(sections):
        shared.setdefault(s.key, []).append(i)

    def reduce_chunk(lo, hi):
        normals, parts = {}, [None] * len(sections)
        for members in shared.values():
            d = sections[members[0]].draws(normals, lo, hi)
            for i in members:
                parts[i] = accs[i].part(sections[i].terms(d))
        return parts

    width = 2 * sections[0].k
    head = reduce_chunk(*next(_rng.chunks(count, width)))
    rest = _rng.run_chunks(lambda lo, hi: None if lo == 0 else reduce_chunk(lo, hi),
                           count, width)
    for parts in [head] + rest[1:]:
        for acc, part in zip(accs, parts):
            acc.add_part(part)
    return [s.reports(acc.mean_se(), count) for s, acc in zip(sections, accs)]


def _joint(m, spec, seed):
    """Key and draws of (U1, U2) on m under the scale mixture spec, from the
    chunk's 2k-wide normals, drawn once for all sections of seed and k."""
    to_draws = joint_map(m)

    def draws(normals, lo, hi):
        if (seed, m.k) not in normals:
            normals[seed, m.k] = _rng.normals(seed, hi - lo, 2 * m.k,
                                              stream=_rng.STREAM_NOISE, start=lo)
        return _Draws(m, *to_draws(spec.scale(normals[seed, m.k], seed, lo)))
    return ("joint", id(m), spec, seed), draws


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


class _Draws:
    """One batch of (U1, U2) and the per-draw quantities the checks share,
    each computed once, on first use. The factor-coordinate terms use the
    identity P Z = U1 - U2 (true almost surely, also in the singular case),
    so the cross term is U1'(U1-U2) / ||U1-U2||^2."""

    def __init__(self, m, U1, U2):
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
    d = _Draws(m, U1, U2)
    return _risk_moments(m, U1.shape[0],
                         _reduce((*_h_terms(d, h), d.eta, d.eta_ddag, d.inv_sq)))


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
    est = apply_rule(U1, U2, h, -c)
    return _reduce((_rowdot(est, est),))[0]


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
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return np.where(side(d.window_sq, alpha * alpha), d.eta_ddag, 0.0)


def _born1_report(m, alpha, small, omega):
    (lhs, se_lhs), (omega_hat, se_omega) = small, omega
    scale = 0.5 * alpha * alpha * m.psi1
    return BoundReport.compare("cross-term-small-window", lhs, scale * omega_hat,
                               3.0 * (se_lhs + scale * se_omega))


def check_born1(m, U1, U2, alpha):
    """Cross term restricted to the small-norm window, against the
    window-squared cap alpha^2 psi1 omega / 2."""
    d = _Draws(m, U1, U2)
    return _born1_report(m, alpha, *_reduce(
        (_window_core(d, alpha, np.less_equal), d.inv_sq)))


def _born2_report(m, alpha, tail):
    lhs, se_lhs = tail
    mu_sq = float(m.mu @ m.mu)
    rhs = m.psi1 * (m.trace_A + m.q + mu_sq) / (alpha * alpha * m.psi0)
    return BoundReport.compare("cross-term-tail", lhs, rhs, 3.0 * se_lhs)


def check_born2(m, U1, U2, alpha):
    """Cross term outside the window, against the analytic tail cap
    psi1 (trace A + q + mu'mu) / (alpha^2 psi0)."""
    d = _Draws(m, U1, U2)
    return _born2_report(m, alpha, *_reduce((_window_core(d, alpha, np.greater),)))


def check_corinterm(m, moments):
    """The absolute cross moment against its finite analytic cap."""
    mu_sq = float(m.mu @ m.mu)
    rhs = moments.omega + m.psi1**2 * (m.trace_A + m.q + mu_sq) / (2.0 * m.psi0)
    tol = 3.0 * (moments.se_eta_ddag + moments.se_omega)
    return BoundReport.compare("absolute-cross-moment-cap", moments.eta_ddag, rhs, tol)


def check_courant(C, trials, seed):
    """Rayleigh-quotient caps on random vectors; deterministic truths, so
    zero tolerance. Returns three reports: symmetric-part quadratic form,
    the same through the summed matrix, and the bilinear form against the
    off-diagonal block embedding."""
    C = np.asarray(C, dtype=float)
    mdim = C.shape[0]
    x = _rng.normals(seed, trials, mdim, stream=0)
    y = _rng.normals(seed, trials, mdim, stream=1)
    xx = np.einsum("ij,ij->i", x, x)
    yy = np.einsum("ij,ij->i", y, y)
    quad = np.einsum("ij,ij->i", x @ C, x)
    bilinear = np.einsum("ij,ij->i", y, x @ C.T)

    sym = 0.5 * (C + C.T)
    lam_sym = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    lam_sum_half = 0.5 * float(np.max(np.abs(np.linalg.eigvalsh(C + C.T))))
    B0 = np.block([[np.zeros((mdim, mdim)), C.T], [C, np.zeros((mdim, mdim))]])
    lam_b0_half = 0.5 * float(np.max(np.abs(np.linalg.eigvalsh(B0))))

    r1 = BoundReport.compare("rayleigh-cap-symmetric",
                             np.max(np.abs(quad) / xx), lam_sym)
    r2 = BoundReport.compare("rayleigh-cap-summed",
                             np.max(np.abs(quad) / xx), lam_sum_half)
    r3 = BoundReport.compare("rayleigh-cap-bilinear",
                             np.max(np.abs(bilinear) / (xx + yy)), lam_b0_half)
    return r1, r2, r3


def _singular_form(m, h, Lambda):
    """Lambda Xi Lambda, once Lambda and h meet the singular theory's
    conditions: Lambda symmetric positive definite with Lambda^(1/2) Xi
    Lambda^(1/2) idempotent and fixing the bias, and h bounded (every
    weight is a function of the difference only)."""
    Lambda = np.asarray(Lambda, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (Lambda + Lambda.T))
    if vals[0] <= 0:
        raise ValueError("Lambda must be symmetric positive definite")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    half_form = root @ m.Xi @ root
    if np.abs(half_form @ half_form - half_form).max() > 1e-8:
        raise ValueError("Lambda^(1/2) Xi Lambda^(1/2) is not idempotent")
    LXL = Lambda @ m.Xi @ Lambda
    if np.abs(LXL @ m.gamma - Lambda @ m.gamma).max() > 1e-8:
        raise ValueError("Lambda Xi Lambda does not fix the bias under Lambda")
    if not (np.isfinite(h.q0) and h.q0 > 0):
        raise ValueError("weight needs a finite positive bound constant")
    return LXL


def _singular_terms(d, h, LXL):
    """Per draw: the omega_h term and the quadratic form D' LXL D."""
    return _h_terms(d, h)[1], _rowdot(d.diff @ LXL, d.diff)


def _singular_reports(m, h, LXL, omega_h, qf):
    (omega_h_hat, se), (qf_mean, qf_se) = omega_h, qf
    target = m.q + float(m.gamma @ LXL @ m.gamma)
    mean_report = BoundReport.compare("difference-quadratic-form-mean",
                                      abs(qf_mean - target), 0.0, 3.0 * qf_se)
    if m.q <= 2:
        bound = BoundReport("singular-omega-cap[not-applicable-q<=2]",
                            omega_h_hat, np.inf, True, np.inf, 0.0)
    else:
        rhs = h.q0 * float(np.trace(LXL)) / (m.q - 2)
        bound = BoundReport.compare("singular-omega-cap", omega_h_hat, rhs, 3.0 * se)
    return bound, mean_report


def check_singular_omega(m, h, Lambda, U1, U2):
    """Curvature moment of a bounded weight against the trace cap that the
    singular theory gives under the projection conditions on Lambda.

    Returns the cap report and a distributional cross-check: the quadratic
    form of the difference under Lambda Xi Lambda must average to
    q + noncentrality.
    """
    LXL = _singular_form(m, h, Lambda)
    return _singular_reports(m, h, LXL, *_reduce(
        _singular_terms(_Draws(m, U1, U2), h, LXL)))


def _elliptical_cap(m, spec):
    if m.q <= 2:
        raise DivergentMomentError(
            f"inverse norm moment needs factor dimension >= 3, got q={m.q}")
    return spec.first_abs_moment / (m.q - 2)


def _elliptical_terms(d):
    """Per draw: 1 / ||Z||^2 and 1 / ||U1 - U2||^2."""
    return 1.0 / d.zz, d.inv_sq


def _elliptical_reports(m, cap, inv_zz, omega):
    (inv_zz_hat, se_zz), (omega_hat, se_om) = inv_zz, omega
    rw = np.linalg.eigvalsh(m.R)
    lam_min, lam_max = float(rw[0]), float(rw[-1])
    r_cap = BoundReport.compare("elliptical-inverse-norm-cap",
                                inv_zz_hat, cap, 3.0 * se_zz)
    r_lo = BoundReport.compare("omega-sandwich-lower",
                               inv_zz_hat / lam_max, omega_hat,
                               3.0 * (se_zz / lam_max + se_om))
    r_hi = BoundReport.compare("omega-sandwich-upper",
                               omega_hat, inv_zz_hat / lam_min,
                               3.0 * (se_om + se_zz / lam_min))
    return r_cap, r_lo, r_hi


def check_elliptical_omega(m, spec, U1, U2):
    """Inverse squared norm of the factor coordinates under draws from the
    scale mixture spec, against the mixing-mean cap, plus the eigenvalue
    sandwich tying it to the curvature moment. Three reports."""
    cap = _elliptical_cap(m, spec)
    return _elliptical_reports(m, cap, *_reduce(_elliptical_terms(_Draws(m, U1, U2))))


def identity_instance(k=3):
    """Base and competitor independent, both unit covariance, no bias."""
    eye = np.eye(k)
    return JointMoments.from_covariances(np.zeros(k), eye, np.zeros((k, k)), eye)


def biased_instance(k=3, gamma_norm=1.0):
    """Identity blocks with the competitor biased along the first axis."""
    gamma = np.zeros(k)
    gamma[0] = gamma_norm
    eye = np.eye(k)
    return JointMoments.from_covariances(gamma, eye, np.zeros((k, k)), eye)


RESTRICTED_ROWS = 25


def restricted_instance(n=RESTRICTED_ROWS, k=4, q=3, sigma=1.0, seed=7):
    """A fixed design with intercept plus a rank-q restriction satisfied by
    the truth, so the competitor is unbiased and the factor is singular.

    Returns (model, restriction, beta_true, moments).
    """
    if not 1 <= q <= k:
        raise ValueError(f"need 1 <= q <= k, got q={q}, k={k}")
    g = _rng.normals(seed, n, k - 1, stream=_rng.STREAM_NOISE)
    X = np.column_stack([np.ones(n), 1.0 + g])
    beta_true = np.ones(k)
    restriction = LinearRestriction(np.eye(q, k), np.eye(q, k) @ beta_true)
    model = LinearModel(X, X @ beta_true, sigma)
    moments = joint_moments_restricted(model, restriction, beta_true)
    return model, restriction, beta_true, moments


def _tag(report, label):
    return replace(report, name=f"{report.name}[{label}]")


def gaussian_suite(m, label, seed):
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
    return _Section(*_joint(m, EllipticalSpec.dirac(), seed), m.k, terms, reports)


def elliptical_suite(m, spec, label, seed):
    """The section of the elliptical caps under the scale mixture spec,
    tagged with label; q <= 2 is refused here, before anything is drawn."""
    cap = _elliptical_cap(m, spec)
    return _Section(*_joint(m, spec, seed), m.k, _elliptical_terms, lambda stats, count:
                    [_tag(rep, label) for rep in _elliptical_reports(m, cap, *stats)])


def singular_suite(instance, label, seed):
    """The section of the singular-covariance caps on a restricted instance
    (model, restriction, beta_true, moments), with Lambda = A^-1 and the
    inverse-square-norm weight, on its own k-wide sample_joint_singular."""
    model, restriction, beta_true, ms = instance
    h = HFunction.inverse_sq_norm()
    LXL = _singular_form(ms, h, np.linalg.inv(ms.A))

    def draws(normals, lo, hi):
        return _Draws(ms, *sample_joint_singular(model, restriction, beta_true,
                                                 model.sigma, hi - lo, seed, lo))
    return _Section(("singular", id(ms), seed), draws, ms.k,
                    lambda d: _singular_terms(d, h, LXL), lambda stats, count:
                    [_tag(rep, label) for rep in _singular_reports(ms, h, LXL, *stats)])


def default_bound_suite(count=10**6, seed=DEFAULT_SEED):
    """Every inequality check on the standard instance set, in a fixed
    order, in one pass whose Gaussian and elliptical sections share each
    chunk's normals and the Dirac section the biased instance's draws.
    All reports should hold.

    The strict elliptical cap is run on the biased instance: at zero bias
    the plain-Gaussian cap is an equality, which no finite-sample check
    can sit strictly below.
    """
    biased = biased_instance()
    sections = [gaussian_suite(identity_instance(), "identity", seed),
                gaussian_suite(biased, "biased", seed),
                elliptical_suite(biased, EllipticalSpec.dirac(), "biased/dirac", seed),
                elliptical_suite(biased, EllipticalSpec.gamma_mixture(5.0),
                                 "biased/gamma-nu5", seed),
                singular_suite(restricted_instance(), "restricted-q3", seed)]
    return [rep for reports in _stream(sections, count) for rep in reports]
