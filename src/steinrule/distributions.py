"""Samplers for the joint law of the estimator errors (Gaussian, scale
mixtures of Gaussians, restriction-induced singular Gaussians) and the
isotropic inverse moments they are checked against, by one trapezoid sum.

A gamma mixing draw is the Gamma(a) quantile of one uniform u, a = nu/2.
It is read from a table of log x against z = ndtri(u), built once per
shape on first use, by quintic Hermite interpolation: one table read per
draw in place of gammaincinv's root search, equal to it to within 5e-14
relative."""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammainccinv, gammaincinv, gammaln, ndtr, ndtri

from . import _rng
from .core_model import Competitor

DIRAC_AT_ONE = "dirac-at-one"
GAMMA_MIXTURE = "gamma-mixture"
TWO_POINT_MIXTURE = "two-point-mixture"


# the gamma quantile table's nodes, evenly spaced in z over [-Z, Z]; Z
# holds ndtri of every uniform in [2^-53, 1 - 2^-53], |z| <= 8.21. At 512
# nodes the quantile is within 2e-14 relative of the exact one for every
# shape a from 1 to 1e4, so nu = 2a up to _NU_MAX; what is left is the
# rounding of z and of log x, which more nodes do not lower.
_NODES = 512
_Z = 8.5
_STEP = 2 * _Z / (_NODES - 1)
_NU_MAX = 2e4


class DivergentMomentError(ValueError):
    """The requested inverse moment does not exist."""


@functools.lru_cache(maxsize=64)
def _quantile_table(a):
    """Quintic coefficients, one row per node interval, of log x against
    the node position t = (z + Z) / step, where x is the Gamma(a) quantile
    at ndtr(z). Each node takes x from the inverse incomplete gamma
    function of the tail it lies in, y = log x, its slope
    s' = dy/dz = phi(z) / (x f(x)), f the Gamma(a) density, and its
    curvature s'' = s' (s' (x - a) - z), the derivative of
    log s' = -z^2/2 - log sqrt(2 pi) - a y + x + log Gamma(a)."""
    z = np.linspace(-_Z, _Z, _NODES)
    x = np.where(z < 0, gammaincinv(a, ndtr(z)), gammainccinv(a, ndtr(-z)))
    y = np.log(x)
    s1 = np.exp(x - a * y + gammaln(a) - 0.5 * z * z - 0.5 * np.log(2 * np.pi))
    m, c = _STEP * s1, _STEP ** 2 * s1 * (s1 * (x - a) - z)
    dy, m0, m1, c0, c1 = np.diff(y), m[:-1], m[1:], c[:-1], c[1:]
    table = np.stack([y[:-1], m0, 0.5 * c0,
                      10 * dy - 6 * m0 - 4 * m1 - 1.5 * c0 + 0.5 * c1,
                      -15 * dy + 8 * m0 + 7 * m1 + 1.5 * c0 - c1,
                      6 * dy - 3 * m0 - 3 * m1 - 0.5 * c0 + 0.5 * c1], axis=1)
    table.flags.writeable = False
    return table


def _gamma_quantile(a, u):
    """The Gamma(a) quantile of each uniform u, for a > 1, with u floored
    at 2^-53 as the normals floor theirs, so that u = 0 gives a positive
    draw: the table polynomial at t = (ndtri(u) + Z) / step by Horner's
    rule, exponentiated. Element by element, so any batching gives the
    same bits."""
    t = (ndtri(np.maximum(u, _rng._U_FLOOR)) + _Z) / _STEP
    node = t.astype(np.intp)
    s = t - node
    c0, c1, c2, c3, c4, c5 = _quantile_table(a)[node].T
    return np.exp(c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5)))))


@dataclass(frozen=True)
class EllipticalSpec:
    """Scale-mixture weighting: a draw z from the mixing law scales one
    whole Gaussian sample by z^(-1/2).

    first_abs_moment is the mixing mean E[z], laplace(0).
    """

    kind: str
    nu: Optional[float] = None
    z1: Optional[float] = None
    z2: Optional[float] = None
    w: Optional[float] = None

    @classmethod
    def dirac(cls):
        """Point mass at 1: plain Gaussian sampling."""
        return cls(DIRAC_AT_ONE)

    @classmethod
    def gamma_mixture(cls, nu):
        """Gamma(nu/2, rate nu/2) mixing, 2 < nu <= 2e4; the draws are
        multivariate t(nu)."""
        if not 2 < nu < np.inf:
            raise ValueError(f"gamma mixing needs a finite nu > 2, got {nu}")
        if nu > _NU_MAX:
            raise ValueError(f"gamma mixing is tabulated for nu <= {_NU_MAX:g}, got "
                             f"{nu}; use the Gaussian law ({DIRAC_AT_ONE}) past it")
        return cls(GAMMA_MIXTURE, nu=float(nu))

    @classmethod
    def two_point(cls, z1, z2, w):
        """Mass w at z1 and 1 - w at z2."""
        if not (0 < z1 < np.inf and 0 < z2 < np.inf):
            raise ValueError(f"mixing atoms must be positive and finite, got {z1}, {z2}")
        if not 0 < w < 1:
            raise ValueError(f"weight must lie in (0, 1), got {w}")
        return cls(TWO_POINT_MIXTURE, z1=float(z1), z2=float(z2), w=float(w))

    def laplace(self, c):
        """L(c) = E[z exp(-c z)] over the mixing draw z, elementwise in c."""
        if self.kind == DIRAC_AT_ONE:
            return np.exp(-c)
        if self.kind == GAMMA_MIXTURE:
            return np.exp(-(self.nu / 2.0 + 1.0) * np.log1p(2.0 * c / self.nu))
        return (self.w * self.z1 * np.exp(-c * self.z1)
                + (1.0 - self.w) * self.z2 * np.exp(-c * self.z2))

    @property
    def first_abs_moment(self):
        return float(self.laplace(0.0))

    def mixing_draws(self, seed, count, start=0):
        """One mixing value per sample, one uniform consumed per draw, draws
        addressed by index as the normals are. A gamma draw is the tabulated
        Gamma(nu/2) quantile of its uniform, divided by nu/2; it matches
        gammaincinv's root to within 5e-14 relative."""
        if self.kind == DIRAC_AT_ONE:
            return np.ones(count)
        u = _rng.uniforms(seed, count, 1, stream=_rng.STREAM_MIXING,
                          start=start)[:, 0]
        if self.kind == GAMMA_MIXTURE:
            half = self.nu / 2.0
            return _gamma_quantile(half, u) / half
        return np.where(u < self.w, self.z1, self.z2)

    def scale(self, g, seed, start=0):
        """Rows of g, each divided by the square root of its mixing draw; a
        point mass at 1 returns g itself, as dividing by 1 would bit for bit."""
        if self.kind == DIRAC_AT_ONE:
            return g
        return g / np.sqrt(self.mixing_draws(seed, len(g), start=start))[:, None]


# each mixing kind's constructor and the config keys of its arguments, in order
MIXING_KINDS = {
    DIRAC_AT_ONE: (EllipticalSpec.dirac, ()),
    GAMMA_MIXTURE: (EllipticalSpec.gamma_mixture, ("nu",)),
    TWO_POINT_MIXTURE: (EllipticalSpec.two_point, ("z1", "z2", "w")),
}


def joint_map(m, spec, g, seed, start=0):
    """The one map from rows g of 2k standard normals to (U1, U2) under the
    scale mixture spec: U = spec.scale(g, seed, start) L' about the mean
    (0, gamma), with L = m.joint_factor."""
    U = spec.scale(g, seed, start) @ m.joint_factor.T
    U[:, m.k:] += m.gamma
    return U[:, :m.k], U[:, m.k:]


def sample_joint_gaussian(m, count, seed, start=0):
    """Gaussian draws of (U1, U2), U1 mean zero with covariance A, U2 mean
    gamma with covariance Phi, cross-covariance Sigma, as two (count, k)
    arrays: sample_joint_elliptical at the point mass at 1. Draw i is
    addressed by (seed, start + i), so index ranges can be generated in any
    batching and concatenated."""
    return sample_joint_elliptical(m, EllipticalSpec.dirac(), count, seed, start)


def sample_joint_elliptical(m, spec, count, seed, start=0):
    """Scale-mixture draws: z from the mixing law, then the Gaussian pair
    scaled by z^(-1/2) about its mean, joint_map over the range's normals.
    Mixing uses its own stream, so every spec scales the same normals."""
    g = _rng.normals(seed, count, 2 * m.k, stream=_rng.STREAM_NOISE, start=start)
    return joint_map(m, spec, g, seed, start)


def sample_joint_singular(model, restriction, beta_true, sigma, count, seed, start=0):
    """Simulate (U1, U2) for the restricted competitor: the base error
    U1 = sigma z chol(G)' ~ N(0, sigma^2 G) from k normals, G = (X'X)^-1,
    and U2 = U1 M' + gamma with M = I - J Rmat and gamma the competitor's
    bias at beta_true (core_model.Competitor). This is the law of
    refitting y = X beta_true + noise for Gaussian noise, and the
    difference lives in the q-dimensional range of J by construction.
    beta_true + U1 is never formed, so U2 keeps U1's digits when
    sigma << |beta_true|.

    Both maps are einsum, not matmul: BLAS picks its kernel by the row
    count, so a matmul row's bits would depend on the batch it is drawn
    in."""
    comp = Competitor(model.X.T @ model.X, restriction)
    z = _rng.normals(seed, count, model.k, stream=_rng.STREAM_NOISE, start=start)
    U1 = sigma * np.einsum("ij,kj->ik", z, np.linalg.cholesky(comp.G))
    return U1, np.einsum("ij,kj->ik", U1, comp.M) + comp.bias(beta_true)


def _check_dimension(what, k):
    if not np.isfinite(k):
        raise ValueError(f"dimension k must be finite, got k={k}")
    if k <= 2:
        raise DivergentMomentError(f"{what} needs k >= 3, got k={k}")


def _check_noncentrality(name, value):
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"noncentrality {name} must be finite and nonnegative, "
                         f"got {value}")


def inv_chisq_mean(k, lam):
    """Mean of the inverse noncentral chi-square with k degrees of freedom
    and noncentrality lam: elliptical_inv_quadnorm_mean at the Dirac law."""
    _check_dimension("inverse mean", k)
    _check_noncentrality("lam", lam)
    return elliptical_inv_quadnorm_mean(EllipticalSpec.dirac(), k, lam)


def elliptical_inv_quadnorm_mean(spec, k, mu_sq=0.0):
    """E[1 / Z'Z] for an elliptical Z with identity shape, dimension k, and
    location norm-squared mu_sq: E_s[L(mu_sq s / 2)] / (k - 2), with
    s ~ Beta(1, k/2 - 1) and L = spec.laplace. For the Poisson(lam/2) count j
    of chi2_k(lam), 1/(k - 2 + 2j) = E_s[(1 - s)^j] / (k - 2); summing over j
    gives E_s[exp(-lam s / 2)], and lam = z mu_sq mixes in. E_s is one
    trapezoid sum, step 1/4, in the logistic t of the Beta quantile s
    (Trefethen and Weideman 2014), from t = 40 down to -40 - log1p(mu_sq),
    over the weights' own sum, so mu_sq = 0 gives L(0) / (k - 2)."""
    _check_dimension("inverse quadratic mean", k)
    _check_noncentrality("mu_sq", mu_sq)
    t = np.arange(40.0, -40.0 - np.log1p(mu_sq), -0.25)
    log1p_et = np.log1p(np.exp(t))
    s = -np.expm1(-log1p_et / (k / 2.0 - 1.0))  # Beta quantile of x(t) = 1/(1 + e^-t)
    w = np.exp(t - 2.0 * log1p_et)  # dx/dt
    return float(np.sum(w * spec.laplace(mu_sq * s / 2.0)) / np.sum(w)) / (k - 2)
