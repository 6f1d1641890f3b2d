"""Regression instances, the competing estimators, and the exact joint
second-moment structure of (base - truth, competitor - truth)."""

import numpy as np

# relative eigenvalue cutoff separating factor rank from float noise
RANK_TOL = 1e-10
# eigenvalues above -PSD_TOL * trace count as nonnegative and are clipped
PSD_TOL = 1e-8


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
    deviation (known, or an estimate; zero means noiseless). Pass
    validate=False to skip the shape/rank checks, which is only useful for
    exercising the degenerate-input errors further down the pipeline.
    """

    def __init__(self, X, y, sigma, validate=True):
        self.X = np.array(X, dtype=float)
        self.y = np.array(y, dtype=float)
        self.sigma = float(sigma)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        self.n, self.k = self.X.shape
        if validate:
            self._validate()
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    def _validate(self):
        n, k = self.n, self.k
        if not n > k >= 1:
            raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
        if self.y.shape != (n,):
            raise ValueError(f"y has shape {self.y.shape}, expected ({n},)")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("X and y must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        _design_rank(self.X, raise_on_deficient=True)


def _design_rank(X, raise_on_deficient=False):
    n, k = X.shape
    s = np.linalg.svd(X, compute_uv=False)
    tol = max(n, k) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if raise_on_deficient and rank < k:
        raise RankDeficientError(f"design matrix has rank {rank}, expected {k}")
    return rank


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

    Use from_covariances; the constructor stores precomputed fields.
    """

    def __init__(self, gamma, A, Sigma, Phi, Xi, P, R, mu, q, psi0, psi1):
        self.gamma = gamma
        self.A = A
        self.Sigma = Sigma
        self.Phi = Phi
        self.Xi = Xi
        self.P = P
        self.R = R
        self.mu = mu
        self.q = q
        self.psi0 = psi0
        self.psi1 = psi1
        self.k = A.shape[0]
        self._P_pinv = np.linalg.pinv(P)
        for a in (gamma, A, Sigma, Phi, Xi, P, R, mu):
            a.setflags(write=False)

    @classmethod
    def from_covariances(cls, gamma, A, Sigma, Phi):
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
            q = k
        else:
            # rank-revealing factor from the eigendecomposition
            vals, vecs = np.linalg.eigh(Xi)
            keep = vals > RANK_TOL * scale
            if not keep.any():
                raise MomentConsistencyError("difference covariance is zero")
            order = np.argsort(vals[keep])[::-1]
            P = (vecs[:, keep] * np.sqrt(vals[keep]))[:, order]
            q = int(keep.sum())

        R = P.T @ P
        R = 0.5 * (R + R.T)
        mu = -np.linalg.pinv(P) @ gamma
        rw = np.linalg.eigvalsh(R)
        psi0 = float(rw[0])
        psi1 = float(np.sqrt(rw[-1]))
        return cls(gamma, A, Sigma, Phi, Xi, P, R, mu, q, psi0, psi1)

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
    """Least squares fit, solved through the SVD of the design."""
    u, s, vt = np.linalg.svd(model.X, full_matrices=False)
    tol = max(model.n, model.k) * np.finfo(float).eps * s[0]
    rank = int(np.sum(s > tol))
    if rank < model.k:
        raise RankDeficientError(f"design matrix has rank {rank}, expected {model.k}")
    return vt.T @ ((u.T @ model.y) / s)


def fit_diag_competitor(model):
    """Competing estimator that pretends the design columns are orthogonal.

    Returns D^-1 X'y with D = diag(X'X).
    """
    d = np.einsum("ij,ij->j", model.X, model.X)
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise DegenerateColumnError(f"design column {bad[0]} has zero norm")
    return (model.X.T @ model.y) / d


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


def fit_restricted(model, restriction):
    """Least squares under the constraint Rmat @ beta = r.

    Returns beta_hat - J (Rmat beta_hat - r), J from restriction_projection,
    so the output satisfies the constraint exactly.
    """
    J = restriction_projection(model.X.T @ model.X, restriction)
    beta_hat = fit_ols(model)
    return beta_hat - J @ (restriction.Rmat @ beta_hat - restriction.r)


def joint_moments_diag(model, beta_true):
    """Joint moment structure when the competitor is the diagonal fit.

    The competitor is linear in y, so the blocks are exact:
    A = sigma^2 (X'X)^-1, Sigma = sigma^2 D^-1,
    Phi = sigma^2 D^-1 (X'X) D^-1, gamma = (D^-1 X'X - I) beta_true.
    """
    beta_true = np.asarray(beta_true, dtype=float)
    sig2 = model.sigma**2
    XtX = model.X.T @ model.X
    d = np.diag(XtX)
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise DegenerateColumnError(f"design column {bad[0]} has zero norm")
    G = np.linalg.inv(XtX)
    A = sig2 * 0.5 * (G + G.T)
    Sigma = sig2 * np.diag(1.0 / d)
    Phi = sig2 * (XtX / d[:, None] / d[None, :])
    gamma = (XtX @ beta_true) / d - beta_true
    return JointMoments.from_covariances(gamma, A, Sigma, Phi)


def joint_moments_restricted(model, restriction, beta_true):
    """Joint moment structure when the competitor is the restricted fit.

    With J from restriction_projection, Sigma = Phi = A - J Rmat A (the
    product J Rmat A is symmetric in exact arithmetic), so the difference
    covariance is J Rmat A with rank q and the factor is singular for
    q < k. The bias is gamma = -J (Rmat beta_true - r).
    """
    XtX = model.X.T @ model.X
    J = restriction_projection(XtX, restriction)
    beta_true = np.asarray(beta_true, dtype=float)
    sig2 = model.sigma**2
    G = np.linalg.inv(XtX)
    A = sig2 * 0.5 * (G + G.T)
    JRA = J @ (restriction.Rmat @ A)
    JRA = 0.5 * (JRA + JRA.T)
    gamma = -J @ (restriction.Rmat @ beta_true - restriction.r)
    return JointMoments.from_covariances(gamma, A, A - JRA, A - JRA)


def _check_symmetric_psd(name, M):
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise MomentConsistencyError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    if w[0] < -PSD_TOL * max(np.trace(M), 1.0):
        raise MomentConsistencyError(f"{name} has eigenvalue {w[0]:.3e} below tolerance")
