"""Regression instances, the competing estimators, and the exact joint
second-moment structure of (base - truth, competitor - truth)."""

import numpy as np

# relative eigenvalue cutoff separating factor rank from float noise
RANK_TOL = 1e-10
# eigenvalues above -PSD_TOL * trace count as nonnegative and are clipped
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
        self.n, self.k = self.X.shape
        n, k = self.X.shape
        if not n > k >= 1:
            raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
        if self.y.shape != (n,):
            raise ValueError(f"y has shape {self.y.shape}, expected ({n},)")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("X and y must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        rank = _svd_rank(np.linalg.svd(self.X, compute_uv=False), n, k)
        if rank < k:
            raise RankDeficientError(f"design matrix has rank {rank}, expected {k}")
        self.X.setflags(write=False)
        self.y.setflags(write=False)


def _svd_rank(s, n, k):
    """Numerical rank of an n x k design, or of each in a stack, from its
    descending singular values s (..., min(n, k)): the count above
    max(n, k) * eps * s[0]."""
    tol = max(n, k) * np.finfo(float).eps * s[..., :1]
    return np.sum(s > tol, axis=-1)


class LinearRestriction:
    """A linear constraint Rmat @ beta = r with full row rank."""

    def __init__(self, Rmat, r):
        self.Rmat = np.atleast_2d(np.array(Rmat, dtype=float))
        self.r = np.atleast_1d(np.array(r, dtype=float))
        q, k = self.Rmat.shape
        if q < 1 or k < 1 or self.Rmat.size == 0:
            raise RestrictionError("restriction needs at least one nonempty row")
        if self.r.shape != (q,):
            raise RestrictionError(f"r has shape {self.r.shape}, expected ({q},)")
        for name, a in (("Rmat", self.Rmat), ("r", self.r)):
            if not np.isfinite(a).all():
                raise RestrictionError(f"restriction {name} must be finite")
        rank = np.linalg.matrix_rank(self.Rmat)
        if rank < q:
            raise RestrictionError(
                f"restriction rows are linearly dependent (rank {rank} of {q})"
            )
        self.q = q
        self.k = k


class JointMoments:
    """Second moments of (U1, U2) = (base - truth, competitor - truth).

    U1 has mean 0 and covariance A, U2 has mean gamma and covariance Phi,
    with cross-covariance Sigma. Everything downstream works through the
    covariance of the difference, Xi = A - Sigma - Sigma' + Phi, via a
    factor P (k x q, Xi = P P'): R = P'P, the factor coordinates
    Z = P^- (U1 - U2) with mean mu = -P^- gamma, psi0 the smallest
    eigenvalue of R and psi1 the largest singular value of P.
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
        if not np.isfinite(gamma).all():
            raise MomentConsistencyError("gamma must be finite")
        for name, M in (("A", A), ("Phi", Phi)):
            _check_symmetric_psd(name, M)

        Xi = A - Sigma - Sigma.T + Phi
        Xi = 0.5 * (Xi + Xi.T)
        w = np.linalg.eigvalsh(Xi)
        scale = max(w[-1], 0.0)
        if w[0] < -PSD_TOL * max(np.trace(Xi), 1.0):
            raise MomentConsistencyError(
                f"difference covariance has eigenvalue {w[0]:.3e} below tolerance"
            )
        if scale > 0 and w[0] > scale / 1e12:
            # nonsingular: Cholesky factor, q = k
            P = np.linalg.cholesky(Xi)
            self.q = k
        else:
            # rank-revealing factor from the eigendecomposition
            vals, vecs = np.linalg.eigh(Xi)
            keep = vals > RANK_TOL * scale
            if not keep.any():
                raise MomentConsistencyError("difference covariance is zero")
            order = np.argsort(vals[keep])[::-1]
            P = (vecs[:, keep] * np.sqrt(vals[keep]))[:, order]
            self.q = int(keep.sum())

        R = P.T @ P
        self._P_pinv = np.linalg.pinv(P)
        self.gamma = gamma
        self.A = A
        self.Sigma = Sigma
        self.Phi = Phi
        self.Xi = Xi
        self.P = P
        self.R = 0.5 * (R + R.T)
        self.mu = -self._P_pinv @ gamma
        self.k = k
        rw = np.linalg.eigvalsh(self.R)
        self.psi0 = float(rw[0])
        self.psi1 = float(np.sqrt(rw[-1]))
        for a in (gamma, A, Sigma, Phi, Xi, P, self.R, self.mu):
            a.setflags(write=False)

    @classmethod
    def from_covariances(cls, gamma, A, Sigma, Phi):
        """The constructor, under the name every caller in the package uses."""
        return cls(gamma, A, Sigma, Phi)

    @property
    def trace_A(self):
        return float(np.trace(self.A))

    def factor_coords(self, diffs):
        """Map difference rows (m, k) to factor coordinates Z (m, q).

        Exact solve of P Z = diff when the factor has full rank; in the
        singular case a least-squares solve, valid because differences live
        in range(P) almost surely.
        """
        diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
        return diffs @ self._P_pinv.T


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


def _check_symmetric_psd(name, M):
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise MomentConsistencyError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    if w[0] < -PSD_TOL * max(np.trace(M), 1.0):
        raise MomentConsistencyError(f"{name} has eigenvalue {w[0]:.3e} below tolerance")
