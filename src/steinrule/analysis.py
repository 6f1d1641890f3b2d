"""Real-data pipeline: CSV ingestion, correlation tables, point estimates,
and bootstrap relative efficiency of combined estimators against the base
fit."""

import csv
import json
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import stdtr

from . import _rng
from .core_model import LinearModel, _mv, _rank, _svd_solve
from .shrinkage import _estimator_names, apply_rule, plug_in_gap, spsl
from .simulation import _losses, relative_mse


class DataError(ValueError):
    """File contents or column roles that cannot be analyzed."""


class UndefinedCorrelationError(ValueError):
    """A constant column has no defined correlation with anything."""


@dataclass
class Dataset:
    """Parsed columns plus the modeling roles once select() has bound them."""

    names: list
    columns: dict
    labels: dict
    n: int
    response: Optional[str] = None
    covariates: Optional[tuple] = None

    @property
    def numeric_names(self):
        return [nm for nm in self.names if nm in self.columns]

    def select(self, response, covariates):
        """Bind response and covariate roles, checking the names (at least one
        covariate, each a distinct numeric column) and the row margin."""
        covariates = tuple(covariates)
        if not covariates:
            raise DataError("need at least one covariate, got none")
        for nm in (response, *covariates):
            if nm not in self.columns:
                raise DataError(f"no numeric column named {nm!r}")
        if response in covariates or len(set(covariates)) != len(covariates):
            raise DataError("response and covariates must be distinct columns")
        if self.n <= len(covariates) + 1:
            raise DataError(
                f"{self.n} rows cannot support {len(covariates)} covariates "
                f"plus an intercept")
        return replace(self, response=response, covariates=covariates)

    def design(self):
        """Intercept-plus-covariates design matrix and the response vector."""
        if self.response is None or self.covariates is None:
            raise DataError("call select(response, covariates) first")
        X = np.column_stack(
            [np.ones(self.n)] + [self.columns[nm] for nm in self.covariates])
        return X, self.columns[self.response].copy()


def load_csv(path):
    """Parse a comma-separated file with a header row.

    A column whose first cell is a number must hold finite numbers all the
    way down; a cell that breaks that, or an empty cell, is reported with
    its row and column. Columns that start non-numeric are kept as labels.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        raw = [row for row in csv.reader(fh) if row]
    if len(raw) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = [cell.strip() for cell in raw[0]]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    body = raw[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
    columns, labels = {}, {}
    for j, name in enumerate(header):
        cells = [row[j].strip() for row in body]
        for i, cell in enumerate(cells):
            if cell == "":
                raise DataError(
                    f"{path}: missing value at row {i + 2}, column {name!r}")
        if _is_number(cells[0]):
            values = np.empty(len(cells))
            for i, cell in enumerate(cells):
                try:
                    values[i] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r} at row {i + 2}, "
                        f"column {name!r}") from None
                if not np.isfinite(values[i]):
                    raise DataError(
                        f"{path}: non-finite cell {cell!r} at row {i + 2}, "
                        f"column {name!r}")
            columns[name] = values
        else:
            labels[name] = cells
    return Dataset(header, columns, labels, len(body))


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def matrix_text(names, M):
    """A square matrix as text, rows and columns labeled by names."""
    width = max(len(nm) for nm in names)
    head = " ".join(f"{nm:>10}" for nm in names)
    lines = [f"{'':>{width}}  {head}"]
    for i, nm in enumerate(names):
        row = " ".join(f"{M[i, j]:>10.4f}" for j in range(len(names)))
        lines.append(f"{nm:>{width}}  {row}")
    return "\n".join(lines)


@dataclass
class CorrelationTable:
    names: list
    r: np.ndarray
    p: np.ndarray

    def __str__(self):
        return matrix_text(self.names, self.r)


def correlation_table(data, names=None):
    """Pearson correlations over the numeric columns with two-sided
    p-values from the t transform on n - 2 degrees of freedom."""
    names = data.numeric_names if names is None else list(names)
    if len(names) < 2 or len(set(names)) != len(names):
        raise DataError(f"need at least two distinct columns, got {names}")
    if data.n < 3:
        raise DataError(f"need at least 3 rows, got {data.n}")
    block = []
    for nm in names:
        if nm not in data.columns:
            raise DataError(f"no numeric column named {nm!r}")
        col = data.columns[nm]
        if np.ptp(col) == 0.0:
            raise UndefinedCorrelationError(f"column {nm!r} is constant")
        block.append(col)
    r = np.clip(np.corrcoef(np.column_stack(block), rowvar=False), -1.0, 1.0)
    df = data.n - 2
    with np.errstate(divide="ignore"):
        t = r * np.sqrt(df / (1.0 - r * r))
    p = 2.0 * stdtr(df, -np.abs(t))
    np.fill_diagonal(p, 0.0)
    return CorrelationTable(names, r, p)


@dataclass
class EfficiencyReport:
    """Point estimates and bootstrap relative efficiencies, base included
    as 'ls' with efficiency exactly 1."""

    point_estimates: dict
    relative_efficiency: dict
    efficiency_se: dict
    bootstrap_replications: int
    seed: int
    redraws: int = 0

    def to_json(self):
        doc = {
            "point_estimates": {
                nm: [float(v) for v in vec]
                for nm, vec in self.point_estimates.items()},
            "relative_efficiency": {
                nm: float(v) for nm, v in self.relative_efficiency.items()},
            "efficiency_se": {
                nm: float(v) for nm, v in self.efficiency_se.items()},
            "B": self.bootstrap_replications,
            "seed": self.seed,
            "redraws": self.redraws,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def __str__(self):
        lines = ["point estimates:"]
        for nm, vec in self.point_estimates.items():
            joined = ", ".join(f"{v:.4f}" for v in vec)
            lines.append(f"  {nm}: ({joined})")
        lines.append(f"relative efficiency (B={self.bootstrap_replications}, "
                     f"seed={self.seed}):")
        for nm, val in self.relative_efficiency.items():
            se = self.efficiency_se[nm]
            lines.append(f"  {nm}: {val:.4f} (se {se:.4f})")
        return "\n".join(lines)


def _as_def(spec):
    return spsl() if spec is None else spec


def _design_rank(X):
    """Rank of each design in a stack by core_model's one rule, _rank;
    perfbench's trace counts rank checks here."""
    return _rank(X)


def _fit_pair(X, y, u, s, vt):
    """The base fit, the diagonal competitor D^-1 X'y and the plug-in risk
    gap on one design (n, k) or a stack of them (m, n, k), given the thin
    SVD u, s, vt of each full-rank design: the SVD form of
    Competitor(X'X)'s fit and trace gap."""
    n, k = X.shape[-2:]
    beta_hat = _svd_solve(u, s, vt, y)
    d = np.einsum("...ij,...ij->...j", X, X)
    trace_gap = np.sum(1.0 / s**2, axis=-1) - np.sum(1.0 / d, axis=-1)
    return beta_hat, _mv(X.swapaxes(-1, -2), y) / d, plug_in_gap(
        y - _mv(X, beta_hat), n - k, trace_gap)


# tr G carries cond(X)^2 eps into a_hat; under 1e7 a_hat is good to about 1e-9
_CERTIFIED_COND = 1e7


def _normal_fit(X, y, w):
    """_fit_pair's triple for the pairs resamples of one design X (n, k)
    and response y (n,) that draw row i w[b, i] times, from the normal
    equations, or None unless every resample is certified full rank.

    Resample b's X'WX is w[b] @ (the rows' outer products), its X'Wy is
    w[b] @ (X * y) and its D the diagonal of X'WX; its residuals are the
    n rows' own, weighted by w[b], so no resampled design is gathered.
    G = (X'WX)^-1 comes from one batched inv; the fit G X'Wy takes one
    refinement step, beta += G X'W(y - X beta) (corrected seminormal
    equations, Bjorck 1996, section 6.6), and the trace gap reads tr G.
    With A = X'WX, tr G tr A bounds cond(A) from above, so a resample
    with a positive tr G tr A under _CERTIFIED_COND has s_min / s_max
    above 3e-4, full rank by _rank's rule too. (A singular A that inv
    does not refuse can give a negative one.)"""
    n, k = X.shape
    A = (w @ (X[:, :, None] * X[:, None, :]).reshape(n, k * k)).reshape(-1, k, k)
    try:
        G = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    trace_G = np.trace(G, axis1=-2, axis2=-1)
    bound = trace_G * np.trace(A, axis1=-2, axis2=-1)
    if not np.all((bound > 0) & (bound < _CERTIFIED_COND)):
        return None
    Xty, d = w @ (X * y[:, None]), np.diagonal(A, axis1=-2, axis2=-1)
    beta_hat = _mv(G, Xty)
    beta_hat += _mv(G, (w * (y - beta_hat @ X.T)) @ X)
    resid = np.sqrt(w) * (y - beta_hat @ X.T)
    return beta_hat, Xty / d, plug_in_gap(resid, n - k,
                                          trace_G - np.sum(1.0 / d, axis=-1))


def _full_sample(data, defs):
    """The design, the response, and the full-sample base fit ('ls')
    followed by each estimator's fit. Refuses estimators that are not
    EstimatorDefs with distinct names other than 'ls'."""
    if "ls" in _estimator_names(defs, DataError):
        raise DataError("'ls' names the base estimator")
    X, y = data.design()
    LinearModel(X, y, 1.0)  # checks shape, finiteness and rank
    beta_hat, beta_tilde, a_hat = _fit_pair(
        X, y, *np.linalg.svd(X, full_matrices=False))
    fits = {"ls": beta_hat}
    for est in defs:
        fits[est.name] = apply_rule(beta_hat, beta_tilde, est.h,
                                    est.multiplier(a_hat))[0]
    return X, y, fits


def point_estimates(data, spec=None):
    """The base fit and one combined estimate.

    The default spec is the data-driven member, with the plug-in
    competitor covariance S^2 D^-1 from the diagonal competitor.
    """
    return _full_sample(data, [_as_def(spec)])[2]


def bootstrap_efficiency(data, specs=None, B=5000, seed=0):
    """Pairs bootstrap: resample rows with replacement, refit every
    estimator, and score each replicate's squared distance from the
    full-sample base fit. Relative efficiency is that mean squared error
    over the base estimator's own.

    Replicates are drawn and fitted in chunks of _rng.chunks(B, n k), on
    one thread per CPU (_rng.run_chunks), and each chunk reduces its
    losses to an _rng.moments part. A chunk counts how often each
    replicate draws each row (one bincount) and, when every replicate in
    it is certified full rank, is fitted from those counts on the one
    shared design by the normal equations (_normal_fit); otherwise it
    gathers its stack of resampled designs, and one SVD of the stack
    gives each replicate its rank by _rank's rule and its fit. Replicates
    whose resampled design loses rank are redrawn from a dedicated
    stream, in replicate order: a chunk holding such replicates returns
    only their positions, and once every chunk is done the calling
    thread gives them, chunk by chunk, the stream's full-rank candidates
    in order, gathered and ranked by their singular values a chunk's
    worth at a time, and scores each repaired chunk by one SVD of its
    gathered stack. The parts are pooled in chunk order, so memory stays
    flat in B and the results do not depend on the thread count. Using
    up 10 B candidates aborts.
    """
    if isinstance(B, bool) or not isinstance(B, numbers.Integral):
        raise DataError(f"B must be an integer, got {B!r}")
    B, seed = int(B), _rng._key(seed)
    if B < 100:
        raise DataError(f"need at least 100 replications, got B={B}")
    defs = [_as_def(s) for s in (specs if specs is not None else [None])]
    X, y, full = _full_sample(data, defs)
    n, k = X.shape

    def draw(count, stream, start):
        unif = _rng.uniforms(seed, count, n, stream=stream, start=start)
        return np.minimum((unif * n).astype(int), n - 1)

    def part(beta_hat, beta_tilde, a_hat):
        return _rng.moments(_losses(defs, beta_hat - full["ls"],
                                    beta_hat - beta_tilde, a_hat))

    def chunk(lo, hi):
        idx = draw(hi - lo, 0, lo)
        counts = np.bincount((idx + n * np.arange(hi - lo)[:, None]).ravel(),
                             minlength=(hi - lo) * n)
        fit = _normal_fit(X, y, counts.reshape(-1, n).astype(float))
        if fit is None:
            Xb = X[idx]
            u, s, vt = np.linalg.svd(Xb, full_matrices=False)
            deficient = np.flatnonzero(_rank(Xb, s) < k)
            if len(deficient):
                return deficient, None
            fit = _fit_pair(Xb, y[idx], u, s, vt)
        return (), part(*fit)

    def full_rank_candidates():
        # each full-rank stream-2 candidate in order, with the draws up to it
        block = _rng.chunk_rows(n * k)
        for lo in range(0, 10 * B, block):
            cand = draw(min(block, 10 * B - lo), 2, lo)
            for j in np.flatnonzero(_design_rank(X[cand]) == k).tolist():
                yield lo + j + 1, cand[j]
        raise DataError(
            f"bootstrap gave up after {10 * B} rank-deficient redraws")

    parts, redraws, candidates = [], 0, full_rank_candidates()
    for (lo, hi), (deficient, done) in zip(_rng.chunks(B, n * k),
                                           _rng.run_chunks(chunk, B, n * k)):
        if len(deficient):
            idx = draw(hi - lo, 0, lo)
            for i in deficient:
                redraws, idx[i] = next(candidates)
            Xb = X[idx]
            done = part(*_fit_pair(Xb, y[idx],
                                   *np.linalg.svd(Xb, full_matrices=False)))
        parts.append(done)

    efficiency, spread = {}, {}
    for name, rmse, se in relative_mse(defs, parts):
        efficiency[name], spread[name] = rmse, se
    efficiency["ls"], spread["ls"] = 1.0, 0.0
    return EfficiencyReport(full, efficiency, spread, B, seed, redraws)
