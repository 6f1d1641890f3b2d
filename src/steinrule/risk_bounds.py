"""Analytic and Monte Carlo risk moments of the combined estimator, and
numerical verification of every dominance condition and inequality bound
the theory provides: moment caps, truncated cross-term bounds, the
Rayleigh-quotient caps, and the singular and elliptical extensions."""

from dataclasses import dataclass, replace

import numpy as np

from . import _rng
from .core_model import (
    JointMoments,
    LinearModel,
    LinearRestriction,
    joint_moments_restricted,
)
from .distributions import (
    DivergentMomentError,
    EllipticalSpec,
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


def _mean_se(terms):
    n = terms.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 draws for a mean and its "
                         f"standard error, got {n}")
    return float(terms.mean()), float(terms.std(ddof=1) / np.sqrt(n))


def estimate_risk_moments(m, h, U1, U2):
    """Estimate all five moments from one shared set of draws (U1, U2).

    The factor-coordinate terms use the identity P Z = U1 - U2 (true
    almost surely, also in the singular case), so the cross term is
    U1'(U1-U2) / ||U1-U2||^2. For the inverse-square-norm weight the
    h-moments reuse those exact arrays, keeping the two views bit-equal.
    Weights that inspect more than the difference are evaluated with the
    truth at the origin.
    """
    diff = U1 - U2
    sq = np.einsum("ij,ij->i", diff, diff)
    cross = np.einsum("ij,ij->i", U1, diff)
    with np.errstate(divide="ignore"):
        inv_sq = 1.0 / sq
    eta_terms = cross * inv_sq
    eta_ddag_terms = np.abs(cross) * inv_sq
    omega_terms = inv_sq
    if h.kind == INVERSE_SQ_NORM:
        eta_h_terms = eta_terms
        omega_h_terms = omega_terms
    else:
        hv = h._values_from(U1, U2, sq)
        eta_h_terms = hv * cross
        omega_h_terms = (hv * hv) * sq

    eta_h, se_eta_h = _mean_se(eta_h_terms)
    omega_h, se_omega_h = _mean_se(omega_h_terms)
    eta, se_eta = _mean_se(eta_terms)
    eta_ddag, se_eta_ddag = _mean_se(eta_ddag_terms)
    omega, se_omega = _mean_se(omega_terms)
    return RiskMoments(eta_h, omega_h, eta, eta_ddag, omega,
                       se_eta_h, se_omega_h, se_eta, se_eta_ddag, se_omega,
                       count=U1.shape[0], unreliable=m.q <= 2)


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
    return _mean_se(np.einsum("ij,ij->i", est, est))


def check_prop_eta_omega(moments, q0):
    """The h-moments against their factor-coordinate caps scaled by q0."""
    r_eta = BoundReport.compare(
        "eta-h-cap", abs(moments.eta_h), q0 * moments.eta_ddag,
        3.0 * (moments.se_eta_h + q0 * moments.se_eta_ddag))
    r_omega = BoundReport.compare(
        "omega-h-cap", moments.omega_h, q0 * q0 * moments.omega,
        3.0 * (moments.se_omega_h + q0 * q0 * moments.se_omega))
    return r_eta, r_omega


def _window_terms(m, U1, U2, alpha):
    """Per draw: 1 / sq, |cross| / sq, and the squared window norm
    ||U1||^2 + ||Z||^2 that the cross-term bounds split at alpha^2."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    diff = U1 - U2
    sq = np.einsum("ij,ij->i", diff, diff)
    Z = m.factor_coords(diff)
    w_sq = np.einsum("ij,ij->i", U1, U1) + np.einsum("ij,ij->i", Z, Z)
    with np.errstate(divide="ignore"):
        inv_sq = 1.0 / sq
        core = np.abs(np.einsum("ij,ij->i", U1, diff)) / sq
    return inv_sq, core, w_sq


def check_born1(m, U1, U2, alpha):
    """Cross term restricted to the small-norm window, against the
    window-squared cap alpha^2 psi1 omega / 2."""
    inv_sq, core, w_sq = _window_terms(m, U1, U2, alpha)
    lhs, se_lhs = _mean_se(np.where(w_sq <= alpha * alpha, core, 0.0))
    omega_hat, se_omega = _mean_se(inv_sq)
    scale = 0.5 * alpha * alpha * m.psi1
    return BoundReport.compare("cross-term-small-window", lhs, scale * omega_hat,
                               3.0 * (se_lhs + scale * se_omega))


def check_born2(m, U1, U2, alpha):
    """Cross term outside the window, against the analytic tail cap
    psi1 (trace A + q + mu'mu) / (alpha^2 psi0)."""
    _, core, w_sq = _window_terms(m, U1, U2, alpha)
    lhs, se_lhs = _mean_se(np.where(w_sq > alpha * alpha, core, 0.0))
    mu_sq = float(m.mu @ m.mu)
    rhs = m.psi1 * (m.trace_A + m.q + mu_sq) / (alpha * alpha * m.psi0)
    return BoundReport.compare("cross-term-tail", lhs, rhs, 3.0 * se_lhs)


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


def check_singular_omega(m, h, Lambda, U1, U2):
    """Curvature moment of a bounded weight against the trace cap that the
    singular theory gives under the projection conditions on Lambda.

    Returns the cap report and a distributional cross-check: the quadratic
    form of the difference under Lambda Xi Lambda must average to
    q + noncentrality.
    """
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
    if not h.depends_only_on_difference:
        raise ValueError("weight must depend only on the difference")

    diff = U1 - U2
    sq = np.einsum("ij,ij->i", diff, diff)
    hv = h._values_from(U1, U2, sq)
    omega_h_hat, se = _mean_se((hv * hv) * sq)

    qf = np.einsum("ij,ij->i", diff @ LXL, diff)
    qf_mean, qf_se = _mean_se(qf)
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


def check_elliptical_omega(m, spec, U1, U2):
    """Inverse squared norm of the factor coordinates under draws from the
    scale mixture spec, against the mixing-mean cap, plus the eigenvalue
    sandwich tying it to the curvature moment. Three reports."""
    if m.q <= 2:
        raise DivergentMomentError(
            f"inverse norm moment needs factor dimension >= 3, got q={m.q}")
    diff = U1 - U2
    sq = np.einsum("ij,ij->i", diff, diff)
    Z = m.factor_coords(diff)
    zz = np.einsum("ij,ij->i", Z, Z)
    inv_zz_hat, se_zz = _mean_se(1.0 / zz)
    omega_hat, se_om = _mean_se(1.0 / sq)

    cap = spec.first_abs_moment / (m.q - 2)
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


def restricted_instance(n=25, k=4, q=3, sigma=1.0, seed=7):
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


def gaussian_suite(m, label, count, seed):
    """Every Gaussian-law check on one instance, all on one draw, tagged
    with label: the h-moment caps for the inverse-square-norm and
    smooth-inverse-2 weights, the windowed cross-term bounds, and the
    absolute cross-moment cap."""
    U1, U2 = sample_joint_gaussian(m, count, seed)
    reports, moments = [], {}
    for h, hname in ((HFunction.inverse_sq_norm(), "inverse-sq-norm"),
                     (HFunction.smooth_inverse(2.0), "smooth-inverse-2")):
        moments[hname] = estimate_risk_moments(m, h, U1, U2)
        reports += [_tag(rep, f"{label}/{hname}")
                    for rep in check_prop_eta_omega(moments[hname], h.q0)]
    reports += [_tag(check_born1(m, U1, U2, alpha), f"{label}/alpha={alpha:g}")
                for alpha in (0.5, 1.0, 2.0)]
    reports.append(_tag(check_born2(m, U1, U2, 1.0), f"{label}/alpha=1"))
    reports.append(_tag(check_corinterm(m, moments["inverse-sq-norm"]), label))
    return reports


def elliptical_suite(m, spec, label, count, seed):
    """The elliptical caps on one draw from the scale mixture spec."""
    U1, U2 = sample_joint_elliptical(m, spec, count, seed)
    return [_tag(rep, label) for rep in check_elliptical_omega(m, spec, U1, U2)]


def singular_suite(instance, label, count, seed):
    """The singular-covariance caps on one draw from a restricted instance
    (model, restriction, beta_true, moments), with Lambda = A^-1 and the
    inverse-square-norm weight."""
    model, restriction, beta_true, ms = instance
    U1, U2 = sample_joint_singular(model, restriction, beta_true, model.sigma,
                                   count, seed)
    return [_tag(rep, label) for rep in check_singular_omega(
        ms, HFunction.inverse_sq_norm(), np.linalg.inv(ms.A), U1, U2)]


def default_bound_suite(count=10**6, seed=DEFAULT_SEED):
    """Every inequality check on the standard instance set, in a fixed
    order, each instance drawn once. All reports should hold.

    The strict elliptical cap is run on the biased instance: at zero bias
    the plain-Gaussian cap is an equality, which no finite-sample check
    can sit strictly below.
    """
    reports = []
    biased = biased_instance()
    for label, m in (("identity", identity_instance()), ("biased", biased)):
        reports += gaussian_suite(m, label, count, seed)
    for spec, slabel in ((EllipticalSpec.dirac(), "dirac"),
                         (EllipticalSpec.gamma_mixture(5.0), "gamma-nu5")):
        reports += elliptical_suite(biased, spec, f"biased/{slabel}", count, seed)
    reports += singular_suite(restricted_instance(), "restricted-q3", count, seed)
    return reports
