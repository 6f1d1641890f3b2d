"""Samplers for the joint law of the estimator errors (Gaussian, scale
mixtures of Gaussians, restriction-induced singular Gaussians) and the
closed-form inverse moments they are checked against."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaincinv, hyp1f1, hyp2f1

from . import _rng
from .core_model import PSD_TOL, Competitor, MomentConsistencyError

DIRAC_AT_ONE = "dirac-at-one"
GAMMA_MIXTURE = "gamma-mixture"
TWO_POINT_MIXTURE = "two-point-mixture"


class DivergentMomentError(ValueError):
    """The requested inverse moment does not exist."""


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
        if self.kind == DIRAC_AT_ONE:
            return 1.0
        if self.kind == GAMMA_MIXTURE:
            return 1.0
        return self.w * self.z1 + (1.0 - self.w) * self.z2

    def mixing_draws(self, seed, count, stream=_rng.STREAM_MIXING, start=0):
        """One mixing value per sample, one uniform consumed per draw."""
        if self.kind == DIRAC_AT_ONE:
            return np.ones(count)
        u = _rng.uniforms(seed, count, 1, stream=stream, start=start)[:, 0]
        if self.kind == GAMMA_MIXTURE:
            half = self.nu / 2.0
            return gammaincinv(half, u) / half
        return np.where(u < self.w, self.z1, self.z2)

    def scale(self, g, seed, start=0):
        """Rows of g, each divided by the square root of its mixing draw; a
        point mass at 1 returns g itself, as dividing by 1 would bit for bit."""
        if self.kind == DIRAC_AT_ONE:
            return g
        return g / np.sqrt(self.mixing_draws(seed, len(g), start=start))[:, None]


def joint_map(m):
    """The map from rows g of 2k standard normals, each already scaled by
    its z^(-1/2) under a scale mixture, to draws of (U1, U2): U = g L' about
    the mean (0, gamma), with L L' the joint covariance of (U1, U2). The
    samplers and the bound suite's shared draws all go through it."""
    C = np.block([[m.A, m.Sigma], [m.Sigma.T, m.Phi]])
    C = 0.5 * (C + C.T)
    vals, vecs = np.linalg.eigh(C)
    if vals[0] < -PSD_TOL * max(np.trace(C), 1.0):
        raise MomentConsistencyError(
            f"joint covariance has eigenvalue {vals[0]:.3e} below tolerance"
        )
    L = vecs * np.sqrt(np.clip(vals, 0.0, None))

    def draws(g):
        U = g @ L.T
        U[:, m.k:] += m.gamma
        return U[:, :m.k], U[:, m.k:]
    return draws


def sample_joint_gaussian(m, count, seed, start=0):
    """Draws of (U1, U2): U1 mean zero with covariance A, U2 mean gamma with
    covariance Phi, cross-covariance Sigma. Returns two (count, k) arrays.

    Draw i is addressed by (seed, start + i), so index ranges can be
    generated in any batching and concatenated.
    """
    return joint_map(m)(_rng.normals(seed, count, 2 * m.k,
                                     stream=_rng.STREAM_NOISE, start=start))


def sample_joint_elliptical(m, spec, count, seed, start=0):
    """Scale-mixture draws: z from the mixing law, then the Gaussian pair
    scaled by z^(-1/2) about its mean. Mixing uses its own stream, so the
    Gaussian deviates match sample_joint_gaussian draw for draw."""
    g = _rng.normals(seed, count, 2 * m.k, stream=_rng.STREAM_NOISE, start=start)
    return joint_map(m)(spec.scale(g, seed, start))


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


def inv_chisq_mean(k, lam):
    """Mean of the inverse noncentral chi-square with k degrees of freedom
    and noncentrality lam, in closed form (Bock, Judge and Yancey 1984):

        1F1(1; k/2; -lam/2) / (k - 2)
    """
    if k <= 2:
        raise DivergentMomentError(f"inverse mean needs k >= 3, got k={k}")
    if lam < 0:
        raise ValueError(f"noncentrality must be nonnegative, got {lam}")
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
    if spec.kind == DIRAC_AT_ONE:
        return inv_chisq_mean(k, mu_sq)
    if spec.kind == TWO_POINT_MIXTURE:
        return (spec.w * spec.z1 * inv_chisq_mean(k, spec.z1 * mu_sq)
                + (1.0 - spec.w) * spec.z2 * inv_chisq_mean(k, spec.z2 * mu_sq))
    a = spec.nu / 2.0
    return float(hyp2f1(1.0, a + 1.0, k / 2.0, -mu_sq / (2.0 * a))) / (k - 2)
