"""Samplers for the joint law of the estimator errors (Gaussian, scale
mixtures of Gaussians, restriction-induced singular Gaussians) and the
closed-form inverse moments they are checked against.

A gamma mixing draw is the Gamma(a) quantile of one uniform u, a = nu/2.
It is read from a table of log x against z = ndtri(u), built once per
shape on first use, by cubic Hermite interpolation, then polished by one
Halley step on P(a, x) - u: one incomplete-gamma call per draw in place
of gammaincinv's root search, equal to it up to rounding."""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import (
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
    gammaln,
    hyp1f1,
    hyp2f1,
    ndtr,
    ndtri,
)

from . import _rng
from .core_model import Competitor, psd_eigh

DIRAC_AT_ONE = "dirac-at-one"
GAMMA_MIXTURE = "gamma-mixture"
TWO_POINT_MIXTURE = "two-point-mixture"


# the gamma quantile table's nodes, evenly spaced in z over [-Z, Z]; Z
# holds ndtri of every uniform in [2^-53, 1 - 2^-53], |z| <= 8.21. At 256
# nodes the interpolated quantile is within 6.5e-9 relative for every
# shape a from 1 to 1e4, and the Halley step cubes that error.
_NODES = 256
_Z = 8.5
_STEP = 2 * _Z / (_NODES - 1)


class DivergentMomentError(ValueError):
    """The requested inverse moment does not exist."""


@functools.lru_cache(maxsize=64)
def _quantile_table(a):
    """Cubic coefficients, one row per node interval, of log x against the
    node position t = (z + Z) / step, where x is the Gamma(a) quantile at
    ndtr(z). Each node takes x from the inverse incomplete gamma function
    of the tail it lies in, and its slope d log x / dz = phi(z) / (x f(x)),
    f the Gamma(a) density."""
    z = np.linspace(-_Z, _Z, _NODES)
    x = np.where(z < 0, gammaincinv(a, ndtr(z)), gammainccinv(a, ndtr(-z)))
    y = np.log(x)
    m = _STEP * np.exp(x - a * y + gammaln(a) - 0.5 * z * z
                       - 0.5 * np.log(2 * np.pi))
    dy = np.diff(y)
    table = np.stack([y[:-1], m[:-1], 3 * dy - 2 * m[:-1] - m[1:],
                      m[:-1] + m[1:] - 2 * dy], axis=1)
    table.flags.writeable = False
    return table


def _gamma_quantile(a, u):
    """The Gamma(a) quantile of each uniform u, for a > 1, with u floored
    at 2^-53 as the normals floor theirs, so that u = 0 gives a positive
    draw. Element by element, so any batching gives the same bits.

    The Halley step reads the lower tail P(a, x) - u where u <= 1/2 and
    the upper tail 1 - u - Q(a, x) above, where 1 - u is exact, so that
    each tail keeps its relative precision."""
    u = np.maximum(u, _rng._U_FLOOR)
    t = ndtri(u) / _STEP + _Z / _STEP
    node = t.astype(np.intp)
    s = t - node
    c0, c1, c2, c3 = _quantile_table(a)[node].T
    log_x = c0 + s * (c1 + s * (c2 + s * c3))
    x = np.exp(log_x)
    low = u <= 0.5
    high = ~low
    residual = np.empty_like(x)
    residual[low] = gammainc(a, x[low]) - u[low]
    residual[high] = (1.0 - u[high]) - gammaincc(a, x[high])
    newton = residual / np.exp((a - 1) * log_x - x - gammaln(a))
    return x - newton / (1 - 0.5 * newton * ((a - 1) / x - 1))


@dataclass(frozen=True)
class EllipticalSpec:
    """Scale-mixture weighting: a draw z from the mixing law scales one
    whole Gaussian sample by z^(-1/2).

    first_abs_moment is the integral of t times the absolute weighting
    function; for these nonnegative mixtures it is the mixing mean.
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
        """Gamma(nu/2, rate nu/2) mixing; the draws are multivariate t(nu)."""
        if not 2 < nu < np.inf:
            raise ValueError(f"gamma mixing needs a finite nu > 2, got {nu}")
        return cls(GAMMA_MIXTURE, nu=float(nu))

    @classmethod
    def two_point(cls, z1, z2, w):
        """Mass w at z1 and 1 - w at z2."""
        if not (0 < z1 < np.inf and 0 < z2 < np.inf):
            raise ValueError(f"mixing atoms must be positive and finite, got {z1}, {z2}")
        if not 0 < w < 1:
            raise ValueError(f"weight must lie in (0, 1), got {w}")
        return cls(TWO_POINT_MIXTURE, z1=float(z1), z2=float(z2), w=float(w))

    @property
    def first_abs_moment(self):
        if self.kind == TWO_POINT_MIXTURE:
            return self.w * self.z1 + (1.0 - self.w) * self.z2
        return 1.0

    def mixing_draws(self, seed, count, start=0):
        """One mixing value per sample, one uniform consumed per draw, draws
        addressed by index as the normals are. A gamma draw is the tabulated
        Gamma(nu/2) quantile of its uniform after one Halley step, divided
        by nu/2; it matches gammaincinv's root to within 5e-14 relative."""
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


def joint_map(m, spec):
    """The one map from rows g of 2k standard normals to (U1, U2) under the
    scale mixture spec: draws(g, seed, start) is U = spec.scale(g, seed,
    start) L' about the mean (0, gamma), L = V Lambda^(1/2) from psd_eigh of
    the joint covariance of (U1, U2), noise eigenvalues below 0 clipped."""
    C = np.block([[m.A, m.Sigma], [m.Sigma.T, m.Phi]])
    vals, vecs = psd_eigh("joint covariance", C)
    L = vecs * np.sqrt(np.clip(vals, 0.0, None))

    def draws(g, seed, start=0):
        U = spec.scale(g, seed, start) @ L.T
        U[:, m.k:] += m.gamma
        return U[:, :m.k], U[:, m.k:]
    return draws


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
    return joint_map(m, spec)(g, seed, start)


def sample_joint_singular(model, restriction, beta_true, sigma, count, seed, start=0):
    """Simulate (U1, U2) for the restricted competitor: the base error
    U1 = sigma z chol(G)' ~ N(0, sigma^2 G) from k normals, G = (X'X)^-1,
    and U2 the restricted refit of beta_true + U1, minus beta_true. This
    is the law of refitting y = X beta_true + noise for Gaussian noise,
    and the difference lives in the q-dimensional range of the
    constraint map by construction.

    U1 is mapped by einsum, not matmul: BLAS picks its kernel by the row
    count, so a matmul row's bits would depend on the batch it is drawn
    in."""
    comp = Competitor(model.X.T @ model.X, restriction)
    z = _rng.normals(seed, count, model.k, stream=_rng.STREAM_NOISE, start=start)
    U1 = sigma * np.einsum("ij,kj->ik", z, np.linalg.cholesky(comp.G))
    return U1, comp.fit(beta_true + U1) - beta_true


def _check_noncentrality(name, value):
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"noncentrality {name} must be finite and nonnegative, "
                         f"got {value}")


def inv_chisq_mean(k, lam):
    """Mean of the inverse noncentral chi-square with k degrees of freedom
    and noncentrality lam, in closed form (Bock, Judge and Yancey 1984):

        1F1(1; k/2; -lam/2) / (k - 2)
    """
    if k <= 2:
        raise DivergentMomentError(f"inverse mean needs k >= 3, got k={k}")
    _check_noncentrality("lam", lam)
    return float(hyp1f1(1.0, k / 2.0, -lam / 2.0)) / (k - 2)


def elliptical_inv_quadnorm_mean(spec, k, mu_sq=0.0):
    """E[1 / Z'Z] for an elliptical Z with identity shape, dimension k, and
    location norm-squared mu_sq: the inverse chi-square mean mixed over the
    scale, E_z[z * inv_chisq_mean(k, z * mu_sq)].

    For Gamma(a, rate a) mixing, a = nu/2, the mixture sums term by term to
    2F1(1, a + 1; k/2; -mu_sq / (2a)) / (k - 2).
    """
    if k <= 2:
        raise DivergentMomentError(f"inverse quadratic mean needs k >= 3, got k={k}")
    _check_noncentrality("mu_sq", mu_sq)
    if spec.kind == DIRAC_AT_ONE:
        return inv_chisq_mean(k, mu_sq)
    if spec.kind == TWO_POINT_MIXTURE:
        return (spec.w * spec.z1 * inv_chisq_mean(k, spec.z1 * mu_sq)
                + (1.0 - spec.w) * spec.z2 * inv_chisq_mean(k, spec.z2 * mu_sq))
    a = spec.nu / 2.0
    return float(hyp2f1(1.0, a + 1.0, k / 2.0, -mu_sq / (2.0 * a))) / (k - 2)
