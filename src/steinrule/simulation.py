"""Monte Carlo sweeps: correlated designs with a leading intercept column,
replication cells streamed in chunks, and relative mean square efficiency
against the base estimator."""

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import _rng
from .core_model import (
    DIAG,
    Competitor,
    LinearRestriction,
    RestrictionError,
    restriction_projection,
)
from .distributions import (
    DIRAC_AT_ONE,
    GAMMA_MIXTURE,
    TWO_POINT_MIXTURE,
    EllipticalSpec,
)
from .shrinkage import (
    INVERSE_SQ_NORM,
    ONE,
    SMOOTH_INVERSE,
    ZERO,
    EstimatorDef,
    HFunction,
    apply_rule,
    plug_in_gap,
    spsl,
)


class ConfigError(ValueError):
    """A sweep configuration that cannot be run as given."""


@dataclass
class SimConfig:
    """One sweep: a design shape, noise level and law, the competitor, the
    estimators to score, and the grid of coefficient norms.

    Mirrors the JSON layout accepted by from_json. gamma_norms is only
    consumed by gamma_sweep.
    """

    n: int
    k: int
    sigma: float
    rho: float
    beta_norms: tuple
    replications: int
    seed: int
    distribution: EllipticalSpec = field(default_factory=EllipticalSpec.dirac)
    competitor: Union[str, LinearRestriction] = DIAG
    estimators: tuple = ()
    gamma_norms: Optional[tuple] = None

    def __post_init__(self):
        for key in ("n", "k", "replications", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not self.n > self.k >= 2:
            raise ConfigError(f"need n > k >= 2, got n={self.n}, k={self.k}")
        _real("sigma", self.sigma)
        _real("rho", self.rho)
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.replications < 100:
            raise ConfigError(
                f"need at least 100 replications, got {self.replications}")
        low = -1.0 / (self.k - 2) if self.k > 2 else -1.0
        if not low < self.rho < 1.0:
            raise ConfigError(
                f"rho={self.rho} outside ({low:.4g}, 1), the positive-definite "
                f"range for k={self.k}")
        self.beta_norms = _reals("beta_norms", self.beta_norms)
        if not self.beta_norms or any(b <= 0 for b in self.beta_norms):
            raise ConfigError("beta_norms must be a nonempty list of positive reals")
        if isinstance(self.competitor, LinearRestriction):
            if self.competitor.k != self.k:
                raise ConfigError(
                    f"competitor restricts {self.competitor.k} coefficients, "
                    f"config has k={self.k}")
        elif self.competitor != DIAG:
            raise ConfigError(f"unknown competitor {self.competitor!r}")
        self.estimators = tuple(_sequence("estimators", self.estimators) or (spsl(),))
        names = [est.name for est in self.estimators]
        for name in names:
            if not isinstance(name, str) or not name or names.count(name) > 1:
                raise ConfigError(
                    f"estimator names must be distinct nonempty strings, got {name!r}")
        if self.gamma_norms is not None:
            self.gamma_norms = _reals("gamma_norms", self.gamma_norms)
            if not self.gamma_norms or any(g < 0 for g in self.gamma_norms):
                raise ConfigError("gamma_norms must be a nonempty list of "
                                  "nonnegative reals")

    @classmethod
    def from_json(cls, doc):
        """Build from a JSON document (text or parsed dict)."""
        data = json.loads(doc) if isinstance(doc, str) else dict(doc)
        known = {"n", "k", "sigma", "rho", "beta_norms", "replications", "seed",
                 "distribution", "competitor", "estimators", "gamma_norms"}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        missing = {"n", "k", "sigma", "rho", "beta_norms", "replications",
                   "seed"} - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        kwargs = {key: data[key] for key in
                  ("n", "k", "sigma", "rho", "beta_norms", "replications", "seed",
                   "gamma_norms") if key in data}
        if "distribution" in data:
            kwargs["distribution"] = _dist_from_json(data["distribution"])
        if "competitor" in data:
            kwargs["competitor"] = _competitor_from_json(data["competitor"])
        if "estimators" in data:
            kwargs["estimators"] = tuple(
                _estimator_from_json(e)
                for e in _sequence("estimators", data["estimators"]))
        return cls(**kwargs)

    def to_json_dict(self):
        doc = {
            "n": self.n, "k": self.k, "sigma": self.sigma, "rho": self.rho,
            "beta_norms": list(self.beta_norms),
            "replications": self.replications, "seed": self.seed,
            "distribution": _dist_to_json(self.distribution),
            "competitor": _competitor_to_json(self.competitor),
            "estimators": [
                {"name": e.name, "h": _h_to_json(e.h),
                 "c": "auto" if e.c is None else e.c}
                for e in self.estimators],
        }
        if self.gamma_norms is not None:
            doc["gamma_norms"] = list(self.gamma_norms)
        return doc


def _real(key, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _sequence(key, value):
    if isinstance(value, (str, dict)) or not np.iterable(value):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _reals(key, values):
    return tuple(_real(f"{key} entry", v) for v in _sequence(key, values))


def _object(obj, what):
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _dist_from_json(obj):
    if obj is None or obj == DIRAC_AT_ONE:
        return EllipticalSpec.dirac()
    if isinstance(obj, str):
        raise ConfigError(f"unknown distribution {obj!r}")
    kind = _object(obj, "distribution").get("kind")
    what = f"distribution {kind!r}"
    if kind == DIRAC_AT_ONE:
        return EllipticalSpec.dirac()
    if kind == GAMMA_MIXTURE:
        return EllipticalSpec.gamma_mixture(_real(f"{what} 'nu'", obj.get("nu")))
    if kind == TWO_POINT_MIXTURE:
        return EllipticalSpec.two_point(
            *(_real(f"{what} {key!r}", obj.get(key)) for key in ("z1", "z2", "w")))
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _dist_to_json(spec):
    if spec.kind == DIRAC_AT_ONE:
        return DIRAC_AT_ONE
    if spec.kind == GAMMA_MIXTURE:
        return {"kind": spec.kind, "nu": spec.nu}
    return {"kind": spec.kind, "z1": spec.z1, "z2": spec.z2, "w": spec.w}


def _competitor_from_json(obj):
    if obj == DIAG or obj is None:
        return DIAG
    if isinstance(obj, dict) and "Rmat" in obj and "r" in obj:
        return LinearRestriction(obj["Rmat"], obj["r"])
    raise ConfigError(f"competitor must be 'diag' or {{Rmat, r}}, got {obj!r}")


def _competitor_to_json(comp):
    if comp == DIAG:
        return DIAG
    return {"Rmat": comp.Rmat.tolist(), "r": comp.r.tolist()}


def _h_from_json(obj):
    if isinstance(obj, str):
        if obj == INVERSE_SQ_NORM:
            return HFunction.inverse_sq_norm()
        if obj == ZERO:
            return HFunction.zero()
        if obj == ONE:
            return HFunction.one()
        raise ConfigError(f"unknown weight {obj!r}")
    kind = _object(obj, "weight").get("kind")
    if kind == SMOOTH_INVERSE:
        return HFunction.smooth_inverse(_real(f"weight {kind!r} 'p'", obj.get("p")))
    if kind in (INVERSE_SQ_NORM, ZERO, ONE):
        return _h_from_json(kind)
    raise ConfigError(f"unknown weight kind {kind!r}")


def _h_to_json(h):
    if h.kind == SMOOTH_INVERSE:
        return {"kind": h.kind, "p": h.p}
    return h.kind


def _estimator_from_json(obj):
    name = _object(obj, "estimator").get("name")
    c = obj.get("c", "auto")
    c = None if c in ("auto", None) else _real(f"estimator {name!r} c", c)
    return EstimatorDef(name, _h_from_json(obj.get("h", INVERSE_SQ_NORM)), c)


@dataclass
class SweepRow:
    cell_id: int
    n: int
    k: int
    sigma: float
    rho: float
    beta_norm: float
    gamma_norm: float
    estimator: str
    rmse: float
    rmse_se: float
    replications: int
    seed: int


@dataclass
class SweepResult:
    rows: list
    metadata: dict

    HEADER = ("cell_id,n,k,sigma,rho,beta_norm,gamma_norm,estimator,"
              "rmse,rmse_se,replications,seed")

    def series(self, estimator):
        """Rows for one estimator, in cell order."""
        return [row for row in self.rows if row.estimator == estimator]

    def to_csv(self, path):
        """Write the rows; run metadata goes to the JSON sidecar path.meta.json."""
        lines = [self.HEADER]
        for row in self.rows:
            lines.append(",".join([
                str(row.cell_id), str(row.n), str(row.k),
                _fmt(row.sigma), _fmt(row.rho),
                _fmt(row.beta_norm), _fmt(row.gamma_norm),
                row.estimator, _fmt(row.rmse), _fmt(row.rmse_se),
                str(row.replications), str(row.seed),
            ]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(f"{path}.meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x):
    return format(float(x), ".12g")


def generate_design(n, k, rho, seed):
    """A design with a leading ones column and k - 1 stochastic columns of
    mean 1, unit variance, and common pairwise correlation rho. Fixed by
    the seed; one design serves every replication of a cell."""
    if k < 2:
        raise ConfigError(f"need k >= 2 for a stochastic design, got k={k}")
    m = k - 1
    corr = np.full((m, m), float(rho))
    np.fill_diagonal(corr, 1.0)
    w = np.linalg.eigvalsh(corr)
    if w[0] <= 0:
        raise ConfigError(
            f"equicorrelation with rho={rho} is not positive definite for k={k}")
    factor = np.linalg.cholesky(corr)
    g = _rng.normals(seed, n, m, stream=_rng.STREAM_NOISE)
    X = np.empty((n, k))
    X[:, 0] = 1.0
    X[:, 1:] = 1.0 + g @ factor.T
    return X


def make_beta(k, target_norm):
    """Coefficients along the all-ones direction with squared norm target_norm."""
    if target_norm <= 0:
        raise ConfigError(f"target norm must be positive, got {target_norm}")
    return np.full(k, np.sqrt(target_norm / k))


def run_sweep(config):
    """Score every estimator in every beta-norm cell.

    Within a cell all estimators share the same draws; relative MSE is the
    estimator's mean squared error over the base estimator's, with a
    delta-method standard error for the ratio. Each cell is streamed in
    chunks of replications, so its memory holds one chunk of n-wide noise
    per thread plus one loss per replication and estimator.
    """
    rows = []
    for cell_id, beta_norm in enumerate(config.beta_norms):
        beta = make_beta(config.k, beta_norm)
        X = generate_design(config.n, config.k, config.rho,
                            _rng.spawn_seed(config.seed, cell_id, 0))
        cell_rows, gamma_sq = _run_cell(config, cell_id, X, beta,
                                        config.competitor)
        for name, rmse, se in cell_rows:
            rows.append(SweepRow(cell_id, config.n, config.k, config.sigma,
                                 config.rho, beta_norm, gamma_sq, name,
                                 rmse, se, config.replications, config.seed))
    return SweepResult(rows, _metadata(config, sweep="beta_norms"))


def gamma_sweep(config):
    """Score estimators across the competitor-bias norms config.gamma_norms
    for a restricted competitor, holding the coefficient norm fixed.

    The constraint offset is steered along the equal-weights direction and
    scaled so the realized squared bias norm equals each grid value.
    """
    if not isinstance(config.competitor, LinearRestriction):
        raise ConfigError("gamma sweep needs a restricted competitor")
    if config.gamma_norms is None:
        raise ConfigError("no gamma_norms given")
    if len(config.beta_norms) != 1:
        raise ConfigError("gamma sweep uses a single beta norm")
    base = config.competitor
    beta = make_beta(config.k, config.beta_norms[0])
    rows = []
    for cell_id, gamma_sq_target in enumerate(config.gamma_norms):
        X = generate_design(config.n, config.k, config.rho,
                            _rng.spawn_seed(config.seed, cell_id, 0))
        J = restriction_projection(X.T @ X, base)
        u = np.ones(base.q) / np.sqrt(base.q)
        Ju = J @ u
        scale = np.sqrt(gamma_sq_target / float(Ju @ Ju))
        shifted = LinearRestriction(base.Rmat, base.Rmat @ beta - scale * u)
        cell_rows, gamma_sq = _run_cell(config, cell_id, X, beta, shifted)
        for name, rmse, se in cell_rows:
            rows.append(SweepRow(cell_id, config.n, config.k, config.sigma,
                                 config.rho, config.beta_norms[0], gamma_sq,
                                 name, rmse, se, config.replications,
                                 config.seed))
    return SweepResult(rows, _metadata(config, sweep="gamma_norms",
                                       gamma_norms=list(config.gamma_norms)))


def _run_cell(config, cell_id, X, beta, competitor):
    """All replications of one cell, streamed in chunks of n-wide noise
    run on one thread per CPU (_rng.run_chunks). Every replication's draws
    are addressed by index, so the per-replication losses, and the ratios
    taken over all of them at once, depend neither on the chunking nor on
    the thread count. Returns the per-estimator (name, rmse, se) triples
    and the realized squared bias norm."""
    n, k, reps = config.n, config.k, config.replications
    try:
        comp = Competitor(X.T @ X, competitor)
    except (np.linalg.LinAlgError, RestrictionError) as exc:
        raise ConfigError(f"cell {cell_id} failed: {exc}") from exc

    noise_seed = _rng.spawn_seed(config.seed, cell_id, 1)
    mix_seed = _rng.spawn_seed(config.seed, cell_id, 2)
    XG = X @ comp.G
    loss = np.empty((1 + len(config.estimators), reps))

    def chunk(lo, hi):
        z = config.distribution.mixing_draws(mix_seed, hi - lo, start=lo)
        eps = (config.sigma / np.sqrt(z))[:, None] * _rng.normals(
            noise_seed, hi - lo, n, stream=_rng.STREAM_NOISE, start=lo)
        U1 = eps @ XG
        beta_hat = beta + U1
        a_hat = plug_in_gap(eps - U1 @ X.T, n - k, comp.trace_gap)
        loss[:, lo:hi] = _losses(config.estimators, beta_hat, comp.fit(beta_hat),
                                 a_hat, beta)

    _rng.run_chunks(chunk, reps, n)
    gamma = comp.bias(beta)
    return _relative_mse(config.estimators, loss), float(gamma @ gamma)


def score(estimators, beta_hat, beta_tilde, a_hat, truth):
    """Relative MSE of each estimator against the base over rows of fits:
    beta_hat and beta_tilde are (rows, k), a_hat holds the rows' plug-in
    risk gaps, and truth is what the squared losses are measured from.
    Returns (name, rmse, se) triples in estimator order."""
    return _relative_mse(estimators,
                         _losses(estimators, beta_hat, beta_tilde, a_hat, truth))


def _losses(estimators, beta_hat, beta_tilde, a_hat, truth):
    """Squared loss per row, shape (1 + estimators, rows): the base fit's
    first, then each estimator's in order."""
    # same float path for the base and the estimators, so a zero-weight
    # control reproduces the base loss bitwise
    out = np.empty((1 + len(estimators), beta_hat.shape[0]))
    fits = [beta_hat] + [apply_rule(beta_hat, beta_tilde, est.h, est.multiplier(a_hat))
                         for est in estimators]
    for row, fitted in zip(out, fits):
        dev = fitted - truth
        row[:] = np.einsum("ij,ij->i", dev, dev)
    return out


def _relative_mse(estimators, loss):
    """(name, rmse, se) per estimator from _losses rows: mean loss over
    the base mean loss, with a delta-method standard error."""
    base_loss = loss[0]
    base_mean = base_loss.mean()
    out = []
    for est, est_loss in zip(estimators, loss[1:]):
        ratio = est_loss.mean() / base_mean
        se = ((est_loss - ratio * base_loss).std(ddof=1)
              / np.sqrt(est_loss.shape[0]) / base_mean)
        out.append((est.name, float(ratio), float(se)))
    return out


def _metadata(config, **extra):
    doc = {
        "config": config.to_json_dict(),
        "conventions": {
            "beta_direction": "equal coordinates, scaled to the target norm",
            "design_policy": "one design per cell, fixed across replications",
            "columns": "leading intercept; stochastic columns mean 1, sd 1, "
                       "equicorrelated",
            "bias_offset": "constraint offset along equal weights, scaled to "
                           "the target bias norm",
            "rng": "counter-based streams keyed by (seed, cell)",
        },
    }
    doc.update(extra)
    return doc
