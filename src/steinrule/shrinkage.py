"""The combined-estimator class: base + c * h(base, competitor) * (base - competitor),
its named members, and the weight-function contracts they must satisfy."""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

INVERSE_SQ_NORM = "inverse-sq-norm"
SMOOTH_INVERSE = "smooth-inverse"
ZERO = "zero"
ONE = "one"

# differences with norm under this count as "base equals competitor"
DEGENERATE_NORM = 1e-14


class InvalidRiskMomentError(ValueError):
    """The curvature moment must be positive to define an optimal c."""


class DegenerateDifferenceWarning(UserWarning):
    """Base and competitor coincide, so the shrinkage direction is undefined."""


@dataclass(frozen=True)
class HFunction:
    """Weight function h applied to the pair (base, competitor).

    q0 is the constant with |h(x, y)| * ||x - y||^2 <= q0 over all pairs;
    the bound checks need it. Every weight looks only at x - y, as the
    singular-case theory requires.
    """

    kind: str
    q0: float
    p: Optional[float] = None

    @classmethod
    def inverse_sq_norm(cls):
        """h = 1 / ||x - y||^2; the weight behind the classical rule."""
        return cls(INVERSE_SQ_NORM, q0=1.0)

    @classmethod
    def smooth_inverse(cls, p):
        """h = 1 / (1 + ||x - y||^p), bounded everywhere, for finite p >= 2."""
        if not 2 <= p < np.inf:
            raise ValueError(f"smooth inverse needs a finite p >= 2, got {p}")
        return cls(SMOOTH_INVERSE, q0=_smooth_inverse_q0(float(p)), p=float(p))

    @classmethod
    def zero(cls):
        """h = 0: the combined estimator collapses to the base."""
        return cls(ZERO, q0=0.0)

    @classmethod
    def one(cls):
        """h = 1: with c = -1 the combined estimator is the competitor.

        Unbounded product ||x - y||^2 * |h|, so no finite q0 exists.
        """
        return cls(ONE, q0=np.inf)

    def _values_from(self, sq_norms):
        """One weight per squared norm of x - y."""
        if self.kind == ZERO:
            return np.zeros_like(sq_norms)
        if self.kind == ONE:
            return np.ones_like(sq_norms)
        if self.kind == INVERSE_SQ_NORM:
            with np.errstate(divide="ignore"):
                return 1.0 / sq_norms
        return 1.0 / (1.0 + sq_norms ** (self.p / 2.0))


# each weight kind's constructor and the config keys of its arguments, in order
WEIGHT_KINDS = {
    INVERSE_SQ_NORM: (HFunction.inverse_sq_norm, ()),
    SMOOTH_INVERSE: (HFunction.smooth_inverse, ("p",)),
    ZERO: (HFunction.zero, ()),
    ONE: (HFunction.one, ()),
}


def _smooth_inverse_q0(p):
    # sup over s > 0 of s / (1 + s^a), a = p/2, attained at s^a = 1/(a - 1);
    # at p = 2 the sup is the limit 1, which 0.0 ** 0.0 == 1.0 gives
    a = p / 2.0
    return (a - 1.0) ** (1.0 - 1.0 / a) / a


@dataclass(frozen=True)
class EstimatorDef:
    """An estimator for sweeps and reports, named by a nonempty string.

    c = None means the multiplier is recomputed from each sample as minus
    the plug-in risk-gap estimate (the data-driven member of the class).
    """

    name: str
    h: HFunction
    c: Optional[float] = None

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"name must be a nonempty string, got {self.name!r}")
        c = self.c
        if c is not None and (isinstance(c, bool) or not isinstance(c, numbers.Real)
                              or not math.isfinite(c)):
            raise ValueError(f"c must be a finite real number or None, got {c!r}")

    def multiplier(self, a_hat):
        """The c applied to samples with plug-in risk gaps a_hat: -a_hat
        when c is None, else the fixed c."""
        return -a_hat if self.c is None else self.c


def _estimator_names(estimators, error):
    """The names of a sequence of EstimatorDefs; raises error unless each
    entry is one and their names are distinct."""
    for est in estimators:
        if not isinstance(est, EstimatorDef):
            raise error(f"an estimator must be an EstimatorDef, got {est!r}")
    names = [est.name for est in estimators]
    if len(set(names)) != len(names):
        raise error(f"estimator names must be distinct, got {names}")
    return names


def spsl(name="spsl"):
    """The data-driven member: inverse-square-norm weight, c fitted per sample."""
    return EstimatorDef(name, HFunction.inverse_sq_norm(), None)


def apply_rule(beta_hat, beta_tilde, h, c):
    """Vectorized rule over rows: base + c * h * (base - competitor).

    c may be a scalar or one value per row. Rows where the two estimates
    coincide (norm below 1e-14) are returned as the base, with a warning,
    since the direction is undefined there.
    """
    beta_hat = np.atleast_2d(np.asarray(beta_hat, dtype=float))
    beta_tilde = np.atleast_2d(np.asarray(beta_tilde, dtype=float))
    diff = beta_hat - beta_tilde
    sq = np.einsum("ij,ij->i", diff, diff)
    hv = h._values_from(sq)
    degen = sq < DEGENERATE_NORM**2
    if degen.any():
        warnings.warn(
            f"{int(degen.sum())} degenerate difference(s): returning the base estimate",
            DegenerateDifferenceWarning,
        )
        hv = np.where(degen, 0.0, hv)
    c = np.asarray(c, dtype=float)
    return beta_hat + (c * hv)[:, None] * diff


def plug_in_gap(resid, df, trace_gap):
    """Plug-in risk gap a_hat = S^2 * trace_gap, one per row of residuals.

    S^2 = resid'resid / df is the residual variance of the base fit, and
    trace_gap is the trace of the base covariance minus the competitor's,
    over sigma^2 (Judge & Mittelhammer 2004): core_model.Competitor's
    trace_gap. The data-driven member of the class uses c = -a_hat with
    the inverse-square-norm weight.
    """
    return np.einsum("...i,...i->...", resid, resid) / df * trace_gap


def optimal_c(eta_h, omega_h):
    """Risk-minimizing shrink weight eta(h) / omega(h).

    Shrink-weight convention: weight c pulls the base estimate toward the
    competitor, so the equivalent apply_rule coefficient is -c.
    """
    if not (np.isfinite(eta_h) and np.isfinite(omega_h) and omega_h > 0):
        raise InvalidRiskMomentError(f"need a finite eta(h) and a finite positive "
                                     f"omega(h), got {eta_h} and {omega_h}")
    return eta_h / omega_h


def dominance_interval(eta_h, omega_h):
    """Open interval of shrink weights with risk strictly below the base."""
    c_star = optimal_c(eta_h, omega_h)
    return (min(0.0, 2.0 * c_star), max(0.0, 2.0 * c_star))
