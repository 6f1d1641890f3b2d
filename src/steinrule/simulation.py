"""Monte Carlo sweeps: correlated designs with a leading intercept column,
replication cells streamed in chunks, and relative mean square efficiency
against the base estimator."""

import json
import math
import numbers
from dataclasses import MISSING, astuple, dataclass, field, fields
from typing import Optional, Union

import numpy as np

from . import _rng
from .core_model import DIAG, RANK_TOL, Competitor, LinearRestriction, RestrictionError
from .distributions import DIRAC_AT_ONE, MIXING_KINDS, EllipticalSpec
# apply_rule stays bound here, where the benchmark's tracer wraps it
from .shrinkage import (
    INVERSE_SQ_NORM,
    WEIGHT_KINDS,
    EstimatorDef,
    _estimator_names,
    apply_rule,
    plug_in_gap,
    rule_weights,
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
            setattr(self, key, int(value))
        try:
            _rng._key(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.n > self.k >= 2:
            raise ConfigError(f"need n > k >= 2, got n={self.n}, k={self.k}")
        self.sigma, self.rho = _real("sigma", self.sigma), _real("rho", self.rho)
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.replications < 100:
            raise ConfigError(
                f"need at least 100 replications, got {self.replications}")
        _check_equicorrelation(self.k, self.rho)
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
        _estimator_names(self.estimators, ConfigError)
        if self.gamma_norms is not None:
            self.gamma_norms = _reals("gamma_norms", self.gamma_norms)
            if not self.gamma_norms or any(g < 0 for g in self.gamma_norms):
                raise ConfigError("gamma_norms must be a nonempty list of "
                                  "nonnegative reals")

    @classmethod
    def from_json(cls, doc):
        """Build from a JSON document (text or parsed dict)."""
        data = dict(_keys(json.loads(doc) if isinstance(doc, str) else doc, "config",
                          [f.name for f in fields(cls)],
                          [f.name for f in fields(cls) if f.default is MISSING
                           and f.default_factory is MISSING]))
        if "distribution" in data:
            dist = data["distribution"]
            data["distribution"] = _decode(
                MIXING_KINDS, DIRAC_AT_ONE if dist is None else dist, "distribution")
        if "competitor" in data:
            data["competitor"] = _competitor_from_json(data["competitor"])
        if "estimators" in data:
            data["estimators"] = tuple(
                _estimator_from_json(e)
                for e in _sequence("estimators", data["estimators"]))
        return cls(**data)

    def to_json_dict(self):
        doc = {
            "n": self.n, "k": self.k, "sigma": self.sigma, "rho": self.rho,
            "beta_norms": list(self.beta_norms),
            "replications": self.replications, "seed": self.seed,
            "distribution": _encode(MIXING_KINDS, self.distribution),
            "competitor": DIAG if self.competitor == DIAG else {
                "Rmat": self.competitor.Rmat.tolist(),
                "r": self.competitor.r.tolist()},
            "estimators": [
                {"name": e.name, "h": _encode(WEIGHT_KINDS, e.h),
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


def _keys(obj, what, keys, required):
    """obj, a JSON object holding no key outside keys and all of required."""
    for fault, bad in (("unknown", set(_object(obj, what)) - set(keys)),
                       ("missing", set(required) - set(obj))):
        if bad:
            raise ConfigError(f"{fault} {what} keys: {sorted(bad, key=str)}")
    return obj


def _decode(kinds, obj, what):
    """The spec a config value names: a bare kind name for a kind with no
    keys in kinds, else {"kind": name, key: number, ...} over its keys."""
    bare = isinstance(obj, str)
    kind = obj if bare else _object(obj, what).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    make, keys = kinds[kind]
    label = f"{what} {kind!r}"
    if bare and keys:
        raise ConfigError(f"{label} takes the keys {list(keys)}, so it must be "
                          f"written as an object with 'kind'")
    if not bare:
        _keys(obj, label, ("kind", *keys), ("kind", *keys))
    return _build(label, make, *(_real(f"{label} {key!r}", obj[key]) for key in keys))


def _encode(kinds, spec):
    """The config value _decode reads back as spec."""
    keys = kinds[spec.kind][1]
    if not keys:
        return spec.kind
    return {"kind": spec.kind, **{key: getattr(spec, key) for key in keys}}


def _build(label, make, *args):
    """make(*args), its ValueError raised as a ConfigError naming label."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _competitor_from_json(obj):
    if obj == DIAG or obj is None:
        return DIAG
    if not isinstance(obj, dict):
        raise ConfigError(f"competitor must be 'diag' or {{Rmat, r}}, got {obj!r}")
    _keys(obj, "competitor", ("Rmat", "r"), ("Rmat", "r"))
    return _build("competitor", LinearRestriction,
                  _entries("Rmat", obj["Rmat"]), _entries("r", obj["r"]))


def _entries(key, value, depth=2):
    """A competitor's Rmat or r: a number, or lists to depth of numbers."""
    if depth and isinstance(value, (list, tuple)):
        return [_entries(key, v, depth - 1) for v in value]
    return _real(f"restriction {key} entry", value)


def _estimator_from_json(obj):
    name = _keys(obj, "estimator", ("name", "h", "c"), ("name",))["name"]
    c = obj.get("c", "auto")
    c = None if c in ("auto", None) else _real(f"estimator {name!r} c", c)
    h = _decode(WEIGHT_KINDS, obj.get("h", INVERSE_SQ_NORM), "weight")
    return _build(f"estimator {name!r}", EstimatorDef, name, h, c)


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

    HEADER = ",".join(f.name for f in fields(SweepRow))

    def series(self, estimator):
        """Rows for one estimator, in cell order."""
        return [row for row in self.rows if row.estimator == estimator]

    def to_csv(self, path):
        """Write the rows; run metadata goes to the JSON sidecar path.meta.json."""
        lines = [self.HEADER] + [",".join(map(_fmt, astuple(row)))
                                 for row in self.rows]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(f"{path}.meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x):
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _check_equicorrelation(k, rho):
    """Refuse rho unless the (k - 1)-square equicorrelation is positive
    definite with room to spare: |rho| < 1 and the smaller of its
    eigenvalues 1 - rho and 1 + (k - 2) rho above RANK_TOL times the
    larger."""
    low, high = sorted((1.0 - rho, 1.0 + (k - 2) * rho))
    if not (abs(rho) < 1.0 and low > RANK_TOL * high):
        raise ConfigError(f"equicorrelation with rho={rho} is not positive "
                          f"definite for k={k}")


def generate_design(n, k, rho, seed):
    """A design with a leading ones column and k - 1 stochastic columns of
    mean 1, unit variance, and common pairwise correlation rho. Fixed by
    the seed; one design serves every replication of a cell."""
    if k < 2:
        raise ConfigError(f"need k >= 2 for a stochastic design, got k={k}")
    _check_equicorrelation(k, rho)
    m = k - 1
    corr = np.full((m, m), float(rho))
    np.fill_diagonal(corr, 1.0)
    factor = np.linalg.cholesky(corr)
    g = _rng.normals(seed, n, m, stream=_rng.STREAM_NOISE)
    X = np.empty((n, k))
    X[:, 0] = 1.0
    X[:, 1:] = 1.0 + g @ factor.T
    return X


def make_beta(k, target_norm):
    """Coefficients along the all-ones direction with squared norm target_norm."""
    if not 0 < target_norm < np.inf:
        raise ConfigError(f"need a finite positive target norm, got {target_norm}")
    return np.full(k, np.sqrt(target_norm / k))


def run_sweep(config):
    """Score every estimator in every beta-norm cell.

    Within a cell all estimators share the same draws, scored in closed
    form from each chunk's k-wide errors (_run_cell); relative MSE is the
    estimator's mean squared error over the base estimator's, with a
    delta-method standard error for the ratio. Each cell is streamed in
    chunks of replications, so its memory holds one chunk of n-wide noise
    per thread plus one loss per replication and estimator.
    """
    rows = []
    for cell_id, beta_norm in enumerate(config.beta_norms):
        rows += _run_cell(config, cell_id, beta_norm)
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
    rows = []
    for cell_id, gamma_sq_target in enumerate(config.gamma_norms):
        rows += _run_cell(config, cell_id, config.beta_norms[0], gamma_sq_target)
    return SweepResult(rows, _metadata(config, sweep="gamma_norms",
                                       gamma_norms=list(config.gamma_norms)))


def _run_cell(config, cell_id, beta_norm, gamma_sq_target=None):
    """The cell's rows, one per estimator, from its replications in chunks,
    run on one thread per CPU (_rng.run_chunks). Draws are addressed by
    index, so the losses and the ratios over all of them depend neither
    on the chunking nor on the thread count.

    A chunk's errors are f g, g standard normals and f = sigma z^(-1/2)
    per row (config.distribution.scale of ones). Past g, V = g X G and the
    residual g - V X', all is k-wide: the base error U1 = f V, the plug-in
    gap f^2 times the residual's, and the difference U1 (J Rmat)' - gamma
    of the base and competing fits, which _losses scores. beta + U1 is
    never formed, so U1 keeps its digits when sigma << |beta|.

    With gamma_sq_target the competitor's offset r moves to Rmat beta - s u,
    u the equal weights over its rows and s set so the squared bias norm is
    the target; J, M and the trace gap depend on X'X and Rmat alone."""
    n, k, reps = config.n, config.k, config.replications
    beta = make_beta(k, beta_norm)
    X = generate_design(n, k, config.rho, _rng.spawn_seed(config.seed, cell_id, 0))
    try:
        comp = Competitor(X.T @ X, config.competitor)
    except (np.linalg.LinAlgError, RestrictionError) as exc:
        raise ConfigError(f"cell {cell_id} failed: {exc}") from exc
    if gamma_sq_target is not None:
        u = np.ones(config.competitor.q) / np.sqrt(config.competitor.q)
        Ju = comp.J @ u
        comp.r = comp.Rmat @ beta - np.sqrt(gamma_sq_target / float(Ju @ Ju)) * u

    noise_seed = _rng.spawn_seed(config.seed, cell_id, 1)
    mix_seed = _rng.spawn_seed(config.seed, cell_id, 2)
    XG, JRt, gamma = X @ comp.G, (comp.J @ comp.Rmat).T, comp.bias(beta)
    loss = np.empty((1 + len(config.estimators), reps))

    def chunk(lo, hi):
        g = _rng.normals(noise_seed, hi - lo, n, stream=_rng.STREAM_NOISE, start=lo)
        V = g @ XG
        f = config.sigma * config.distribution.scale(np.ones((hi - lo, 1)), mix_seed, lo)
        U1, resid = f * V, V @ X.T
        resid -= g    # the residual's negative, in place: the same squares
        a_hat = f[:, 0] ** 2 * plug_in_gap(resid, n - k, comp.trace_gap)
        loss[:, lo:hi] = _losses(config.estimators, U1, U1 @ JRt - gamma, a_hat)

    _rng.run_chunks(chunk, reps, n)
    return [SweepRow(cell_id, n, k, config.sigma, config.rho, beta_norm,
                     float(gamma @ gamma), name, rmse, se, reps, config.seed)
            for name, rmse, se in relative_mse(config.estimators,
                                               [_rng.moments(loss)])]


def _losses(estimators, dev, diff, a_hat):
    """Squared losses per row, shape (1 + estimators, rows): the base loss
    b = |dev|^2 first, then each estimator's loss less b. dev is the base
    fit less the truth and diff the base fit less the competitor, both
    (rows, k), and a_hat holds the rows' plug-in risk gaps. An estimator
    with weight w = rule_weights(...) is base + w diff, so its loss less b
    is w (2 dev.diff + w |diff|^2) in closed form: it keeps its digits
    when w is small, and a zero weight gives exactly 0."""
    out = np.empty((1 + len(estimators), len(dev)))
    out[0] = np.einsum("ij,ij->i", dev, dev)
    cross = 2.0 * np.einsum("ij,ij->i", dev, diff)
    sq = np.einsum("ij,ij->i", diff, diff)
    for row, est in zip(out[1:], estimators):
        w = rule_weights(est.h, est.multiplier(a_hat), sq)
        row[:] = w * (cross + w * sq)
    return out


def relative_mse(estimators, parts):
    """(name, rmse, se) per estimator from the _rng parts of _losses rows:
    with b the base loss and d = e - b an estimator's loss less it, the
    ratio is (mean b + mean d) / mean b, and its delta-method standard
    error is the standard error of the mean of d + (1 - ratio) b, over
    mean b. 1 - ratio is taken as -mean d / mean b, so it keeps its digits
    when e is close to b, and a zero-weight control comes out at exactly 1
    with standard error 0."""
    n, centre, mean, M = _rng.pool(parts)
    b, d = centre[0] + mean[0], centre[1:] + mean[1:]
    g = -d / b    # 1 - ratio
    var = np.diagonal(M)[1:] + 2.0 * g * M[1:, 0] + g * g * M[0, 0]
    se = np.sqrt(np.maximum(var, 0.0) / (n - 1)) / np.sqrt(n) / b
    return [(est.name, float(ratio), float(s))
            for est, ratio, s in zip(estimators, (b + d) / b, se)]


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
