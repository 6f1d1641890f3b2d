"""Real-data pipeline: CSV ingestion, correlation tables, point estimates,
and bootstrap relative efficiency of combined estimators against the base
fit."""

import csv
import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import stdtr

from . import _rng
from .core_model import LinearModel, _design_rank, fit_diag_competitor, fit_ols
from .shrinkage import apply_rule, spsl, spsl_c_hat


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
        """Bind response and covariate roles, checking names and the row margin."""
        covariates = tuple(covariates)
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

    A column whose first cell is a number must be numeric all the way
    down; a cell that breaks that, or any empty cell, is reported with its
    row and column. Columns that start non-numeric are kept as labels.
    """
    with open(path, newline="") as fh:
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
    names = list(names) if names else data.numeric_names
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


def _model_from(X, y):
    probe = LinearModel(X, y, 1.0)
    resid = y - X @ fit_ols(probe)
    s2 = float(resid @ resid) / (probe.n - probe.k)
    return LinearModel(X, y, float(np.sqrt(s2)))


def _single_estimate(model, est):
    beta_hat = fit_ols(model)
    beta_tilde = fit_diag_competitor(model)
    if est.c is None:
        d = np.diag(model.X.T @ model.X)
        sigma_hat = model.sigma**2 * np.diag(1.0 / d)
        c = -spsl_c_hat(model, sigma_hat)
    else:
        c = est.c
    return apply_rule(beta_hat[None], beta_tilde[None], est.h, c)[0]


def point_estimates(data, spec=None):
    """The base fit and one combined estimate.

    The default spec is the data-driven member, with the plug-in
    competitor covariance S^2 D^-1 from the diagonal competitor.
    """
    est = _as_def(spec)
    X, y = data.design()
    model = _model_from(X, y)
    return {"ls": fit_ols(model), est.name: _single_estimate(model, est)}


def bootstrap_efficiency(data, specs=None, B=5000, seed=0):
    """Pairs bootstrap: resample rows with replacement, refit every
    estimator, and score each replicate's squared distance from the
    full-sample base fit. Relative efficiency is that mean squared error
    over the base estimator's own.

    Replicates whose resampled design loses rank are redrawn from a
    dedicated stream; more than 10 B redraws aborts.
    """
    if B < 100:
        raise DataError(f"need at least 100 replications, got B={B}")
    defs = [_as_def(s) for s in (specs if specs is not None else [None])]
    if any(est.name == "ls" for est in defs):
        raise DataError("'ls' names the base estimator")
    X, y = data.design()
    model = _model_from(X, y)
    reference = fit_ols(model)
    n, k = model.n, model.k

    full = {"ls": reference}
    for est in defs:
        full[est.name] = _single_estimate(model, est)

    def draw(stream, index):
        u = _rng.uniforms(seed, 1, n, stream=stream, start=index)[0]
        return np.minimum((u * n).astype(int), n - 1)

    losses = {est.name: np.empty(B) for est in defs}
    losses["ls"] = np.empty(B)
    redraws = 0
    for b in range(B):
        idx = draw(0, b)
        while _design_rank(X[idx]) < k:
            if redraws >= 10 * B:
                raise DataError(
                    f"bootstrap gave up after {redraws} rank-deficient redraws")
            idx = draw(2, redraws)
            redraws += 1
        Xb, yb = X[idx], y[idx]
        u_, s_, vt_ = np.linalg.svd(Xb, full_matrices=False)
        beta_hat = vt_.T @ ((u_.T @ yb) / s_)
        d = np.einsum("ij,ij->j", Xb, Xb)
        beta_tilde = (Xb.T @ yb) / d
        resid = yb - Xb @ beta_hat
        s2 = float(resid @ resid) / (n - k)
        a_hat = s2 * (float(np.sum(1.0 / s_**2)) - float(np.sum(1.0 / d)))
        dev = beta_hat - reference
        losses["ls"][b] = float(dev @ dev)
        for est in defs:
            c = -a_hat if est.c is None else est.c
            vec = apply_rule(beta_hat[None], beta_tilde[None], est.h, c)[0]
            dev = vec - reference
            losses[est.name][b] = float(dev @ dev)

    base_mse = losses["ls"].mean()
    efficiency, spread = {}, {}
    for nm, arr in losses.items():
        ratio = arr.mean() / base_mse
        centered = arr - ratio * losses["ls"]
        efficiency[nm] = float(ratio)
        spread[nm] = float(centered.std(ddof=1) / np.sqrt(B) / base_mse)
    return EfficiencyReport(full, efficiency, spread, B, seed, redraws)
