"""Regression instances, the competing estimators, and the exact joint
second-moment structure of (base - truth, competitor - truth)."""

import numpy as np

# relative eigenvalue cutoff separating factor rank from float noise
RANK_TOL = 1e-10
# psd_eigh takes eigenvalues above -PSD_TOL * max(trace, 1) as float noise
PSD_TOL = 1e-8
DIAG = "diag"


class RankDeficientError(ValueError):
    """Design matrix does not have full column rank."""


class DegenerateColumnError(ValueError):
    """A design column with zero squared norm breaks the diagonal competitor."""


class RestrictionError(ValueError):
    """Restriction rows are empty, dependent, or incompatible with the design."""


class MomentConsistencyError(ValueError):
    """Covariance blocks fail symmetry or positive-semidefiniteness."""


class LinearModel:
    """A regression instance y = X beta + noise.

    X is n x k with full column rank, y length n, sigma the noise standard
    deviation (known, or an estimate; zero means noiseless). Every check
    runs here, and the arrays are read-only afterwards, so fits of a model
    need not check again.
    """

    def __init__(self, X, y, sigma):
        self.X = np.array(X, dtype=float)
        self.y = np.array(y, dtype=float)
        self.sigma = float(sigma)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        self.n, self.k = n, k = self.X.shape
        if not n > k >= 1:
            raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
        if self.y.shape != (n,):
            raise ValueError(f"y has shape {self.y.shape}, expected ({n},)")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("X and y must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        rank = _rank(self.X)
        if rank < k:
            raise RankDeficientError(f"design matrix has rank {rank}, expected {k}")
        self.X.setflags(write=False)
        self.y.setflags(write=False)


def _rank(M, s=None):
    """Numerical rank of an n x k matrix M, or of each in a stack, by the
    one rule: its descending singular values s (..., min(n, k)), computed
    here unless given, counted above max(n, k) * eps * s[0]."""
    if s is None:
        s = np.linalg.svd(M, compute_uv=False)
    tol = max(M.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return np.sum(s > tol, axis=-1)


class LinearRestriction:
    """A linear constraint Rmat @ beta = r with full row rank."""

    def __init__(self, Rmat, r):
        self.Rmat = np.atleast_2d(np.array(Rmat, dtype=float))
        self.r = np.atleast_1d(np.array(r, dtype=float))
        if self.Rmat.ndim != 2:
            raise RestrictionError(f"Rmat must be 2-d, got shape {self.Rmat.shape}")
        self.q, self.k = q, k = self.Rmat.shape
        if q < 1 or k < 1 or self.Rmat.size == 0:
            raise RestrictionError("restriction needs at least one nonempty row")
        if self.r.shape != (q,):
            raise RestrictionError(f"r has shape {self.r.shape}, expected ({q},)")
        for name, a in (("Rmat", self.Rmat), ("r", self.r)):
            if not np.isfinite(a).all():
                raise RestrictionError(f"restriction {name} must be finite")
        rank = _rank(self.Rmat)
        if rank < q:
            raise RestrictionError(
                f"restriction rows are linearly dependent (rank {rank} of {q})"
            )


class JointMoments:
    """Second moments of (U1, U2) = (base - truth, competitor - truth).

    U1 has mean 0 and covariance A, U2 has mean gamma and covariance Phi,
    with cross-covariance Sigma. Their joint covariance C = [[A, Sigma],
    [Sigma', Phi]], singular or not, passes one PSD check; its eigenpairs
    give joint_factor = V Lambda^(1/2), noise eigenvalues below 0 clipped,
    so C = joint_factor joint_factor'. Everything else works through the
    covariance of the difference, Xi = A - Sigma - Sigma' + Phi. Its
    one eigendecomposition has q eigenpairs (lambda, V) above
    RANK_TOL times the largest; taken largest first, they give the factor
    P = V Lambda^(1/2) (k x q, Xi = P P'), P+ = Lambda^(-1/2) V',
    R = P'P = diag(lambda), the factor coordinates Z = P+ (U1 - U2) with
    mean mu = -P+ gamma, psi0 = min lambda and psi1 = sqrt(max lambda).
    """

    def __init__(self, gamma, A, Sigma, Phi):
        """Build the full structure from the bias and the three blocks."""
        gamma = np.atleast_1d(np.array(gamma, dtype=float))
        A = np.array(A, dtype=float)
        Sigma = np.array(Sigma, dtype=float)
        Phi = np.array(Phi, dtype=float)
        k = gamma.shape[0]
        for name, M in (("A", A), ("Sigma", Sigma), ("Phi", Phi)):
            if M.shape != (k, k):
                raise MomentConsistencyError(
                    f"{name} has shape {M.shape}, expected ({k}, {k})"
                )
        for name, M in (("gamma", gamma), ("A", A), ("Sigma", Sigma), ("Phi", Phi)):
            if M.size == 0 or not np.isfinite(M).all():
                raise MomentConsistencyError(f"{name} must be nonempty and finite")
        for name, M in (("A", A), ("Phi", Phi)):
            if np.abs(M - M.T).max() > 1e-10 * max(np.abs(M).max(), 1.0):
                raise MomentConsistencyError(f"{name} is not symmetric")
        vals, vecs = psd_eigh("joint covariance",
                              np.block([[A, Sigma], [Sigma.T, Phi]]))
        self.joint_factor = vecs * np.sqrt(np.clip(vals, 0.0, None))

        Xi = A - Sigma - Sigma.T + Phi
        Xi = 0.5 * Xi + 0.5 * Xi.T
        if not np.isfinite(Xi).all():
            raise MomentConsistencyError("difference covariance must be finite")
        vals, vecs = psd_eigh("difference covariance", Xi)
        keep = vals > RANK_TOL * max(vals[-1], 0.0)
        if not keep.any():
            raise MomentConsistencyError("difference covariance is zero")
        lam, V = vals[keep][::-1], vecs[:, keep][:, ::-1]
        root = np.sqrt(lam)
        self._to_coords = V / root
        self.gamma = gamma
        self.A = A
        self.Sigma = Sigma
        self.Phi = Phi
        self.Xi = Xi
        self.P = V * root
        self.R = np.diag(lam)
        self.mu = -(gamma @ self._to_coords)
        self.k = k
        self.q = len(lam)
        self.psi0 = float(lam[-1])
        self.psi1 = float(root[0])
        for a in (gamma, A, Sigma, Phi, Xi, self.joint_factor, self.P, self.R, self.mu):
            a.setflags(write=False)

    @classmethod
    def from_covariances(cls, gamma, A, Sigma, Phi):
        """The constructor, under the name every caller in the package uses."""
        return cls(gamma, A, Sigma, Phi)

    @property
    def trace_A(self):
        return float(np.trace(self.A))

    def factor_coords(self, diffs):
        """Map difference rows (m, k) to factor coordinates Z (m, q) by the
        pseudo-inverse, Z = diffs V Lambda^(-1/2): exact on range(P), where
        differences live almost surely, also when P is singular."""
        diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
        return diffs @ self._to_coords


def fit_ols(model):
    """Least squares fit, solved through the SVD of the full-rank design."""
    u, s, vt = np.linalg.svd(model.X, full_matrices=False)
    return _svd_solve(u, s, vt, model.y)


def _svd_solve(u, s, vt, y):
    """The least-squares fit vt' ((u' y) / s) from the thin SVD of a
    full-rank design, or of each design in a stack with y (..., n)."""
    return _mv(vt.swapaxes(-1, -2), _mv(u.swapaxes(-1, -2), y) / s)


def _mv(A, v):
    """Matrix times vector over any leading stack axes. Each product is
    bitwise that of A @ v on the unstacked pair, which einsum is not."""
    return (A @ v[..., None])[..., 0]


def restriction_projection(XtX, restriction):
    """The projection J = G Rmat' (Rmat G Rmat')^-1 with G = (X'X)^-1.

    The restricted fit is beta_hat - J (Rmat beta_hat - r). Raises
    RestrictionError when the restriction does not match the design or
    Rmat G Rmat' is singular.
    """
    if restriction.k != XtX.shape[0]:
        raise RestrictionError(
            f"restriction is on {restriction.k} coefficients, model has {XtX.shape[0]}"
        )
    GRt = np.linalg.solve(XtX, restriction.Rmat.T)
    S = restriction.Rmat @ GRt
    S = 0.5 * (S + S.T)
    # the factor is only the positive-definiteness test; S itself is solved
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise RestrictionError("Rmat (X'X)^-1 Rmat' is singular") from None
    return GRt @ np.linalg.solve(S, np.eye(restriction.q))


class Competitor:
    """A competing fit as a correction of the base fit,
    beta_tilde = beta_hat - J (Rmat beta_hat - r): J from
    restriction_projection for a LinearRestriction, and J = I,
    Rmat = I - D^-1 X'X, r = 0 for the diagonal fit D^-1 X'y, D = diag(X'X).

    With G = (X'X)^-1 and M = I - J Rmat the errors satisfy
    U2 = M U1 + gamma, gamma = -J (Rmat beta - r), so A = sigma^2 G,
    Sigma = A M', Phi = M A M', and the gap between the two error
    covariances' traces over sigma^2 is trace_gap = trace G - trace(M G M').
    """

    def __init__(self, XtX, competitor=DIAG):
        k = XtX.shape[0]
        if competitor == DIAG:
            d = np.diag(XtX)
            bad = np.flatnonzero(d <= 0)
            if bad.size:
                raise DegenerateColumnError(f"design column {bad[0]} has zero norm")
            self.J = np.eye(k)
            self.Rmat = np.eye(k) - XtX / d[:, None]
            self.r = np.zeros(k)
        else:
            self.J = restriction_projection(XtX, competitor)
            self.Rmat, self.r = competitor.Rmat, competitor.r
        self.G = np.linalg.inv(XtX)
        self.M = np.eye(k) - self.J @ self.Rmat
        self.MGM = self.M @ self.G @ self.M.T
        self.trace_gap = float(np.trace(self.G)) - float(np.trace(self.MGM))

    def fit(self, beta_hat):
        """The competitor from base fits: rows (m, k) or one vector."""
        return beta_hat - (beta_hat @ self.Rmat.T - self.r) @ self.J.T

    def bias(self, beta):
        """gamma = E[competitor] - beta at the true coefficients beta."""
        return -self.J @ (self.Rmat @ beta - self.r)

    def moments(self, sigma, beta):
        """The joint moment structure at noise level sigma and truth beta."""
        sig2 = float(sigma) ** 2
        A = sig2 * 0.5 * (self.G + self.G.T)
        return JointMoments.from_covariances(self.bias(beta), A, A @ self.M.T,
                                             sig2 * self.MGM)


def joint_moments_restricted(model, restriction, beta_true):
    """Joint moment structure when the competitor is the restricted fit:
    Sigma = Phi = A - J Rmat A, so the difference covariance J Rmat A has
    rank q and the factor is singular for q < k."""
    return Competitor(model.X.T @ model.X, restriction).moments(
        model.sigma, beta_true)


def psd_eigh(name, M):
    """eigh of the symmetric part of the covariance M, values ascending;
    an eigenvalue below -PSD_TOL * max(trace M, 1), or a NaN one, raises
    MomentConsistencyError naming M as name. Halves and the tolerance are
    taken before the sums, so a finite M cannot overflow either."""
    vals, vecs = np.linalg.eigh(0.5 * M + 0.5 * M.T)
    if not vals[0] >= -max(np.trace(PSD_TOL * M), PSD_TOL):
        raise MomentConsistencyError(
            f"{name} has eigenvalue {vals[0]:.3e} below tolerance")
    return vals, vecs
