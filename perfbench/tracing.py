"""Outside-in tracing of the package's layers.

The tracer replaces public entry points with wrappers at the places they
are looked up when called, records a span (name, start, end, parent) and
counts for each call, keeps them in memory, and restores the originals on
uninstall. Nothing in the package is edited.
"""

import statistics
import time
import warnings

import numpy as np

from workloads import padded_stride

RISK_CHECKS = ("check_prop_eta_omega", "check_born1", "check_born2",
               "check_corinterm", "check_courant", "check_singular_omega",
               "check_elliptical_omega")
SAMPLERS = ("sample_joint_gaussian", "sample_joint_elliptical",
            "sample_joint_singular")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []        # [span name, layer, start, end, parent index]
        self.counts = {}
        self.draw_keys = set()
        self._stack = []
        self._patches = []     # (owner, attribute, original object)

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def reset(self):
        self.spans, self.counts, self.draw_keys = [], {}, set()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, span, layer, on_call=None):
        """Replace owner.attr by a tracing wrapper; on_call(args, kwargs,
        result) adds counts after each call."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, layer, time.perf_counter(), 0.0, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][3] = time.perf_counter()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._patch(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self):
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def install(self):
        from steinrule import (_rng, analysis, cli, core_model, distributions,
                               risk_bounds, shrinkage, simulation)

        def count_rows(layer, count_pos, dim_pos=None, bytes_key=False):
            def on_call(args, kwargs, result):
                rows = _arg(args, kwargs, count_pos, "count")
                self.add(f"{layer}.calls")
                self.add(f"{layer}.rows", rows)
                if bytes_key:
                    dim = _arg(args, kwargs, dim_pos, "dim")
                    self.add(f"{layer}.bytes_computed",
                             rows * padded_stride(dim) * 8)
            return on_call

        self.wrap(_rng, "normals", "_rng.normals",
                  "rng.normals", count_rows("rng.normals", 1))
        self.wrap(_rng, "uniforms", "_rng.uniforms", "rng.uniforms",
                  count_rows("rng.uniforms", 1, 2, bytes_key=True))

        def sampler_counter(name):
            layer = f"distributions.{name}"

            def on_call(args, kwargs, result):
                self.add(f"{layer}.calls")
                if name == "sample_joint_singular":
                    model, restriction, beta_true, sigma = args[:4]
                    instance = (model.X.tobytes(), restriction.Rmat.tobytes(),
                                restriction.r.tobytes(),
                                np.asarray(beta_true, dtype=float).tobytes(),
                                float(sigma))
                    rest = args[4:]
                else:
                    m, rest = args[0], args[1:]
                    instance = (m.gamma.tobytes(), m.A.tobytes(),
                                m.Sigma.tobytes(), m.Phi.tobytes())
                    if name == "sample_joint_elliptical":
                        instance, rest = instance + (rest[0],), rest[1:]
                count = _arg(rest, kwargs, 0, "count")
                seed = _arg(rest, kwargs, 1, "seed")
                start = _arg(rest, kwargs, 2, "start", 0)
                self.add("distributions.rows_drawn", count)
                self.add("distributions.sampler_calls")
                self.draw_keys.add((name, instance, int(seed), count, start))
            return on_call

        for name in SAMPLERS:
            self.wrap(risk_bounds, name, f"risk_bounds.{name}",
                      f"distributions.{name}", sampler_counter(name))
        self.wrap(distributions.EllipticalSpec, "mixing_draws",
                  "EllipticalSpec.mixing_draws", "distributions.mixing_draws",
                  count_rows("distributions.mixing_draws", 2))

        def count_calls(layer):
            return lambda args, kwargs, result: self.add(f"{layer}.calls")

        self.wrap(risk_bounds, "estimate_risk_moments",
                  "risk_bounds.estimate_risk_moments",
                  "risk_bounds.estimate_risk_moments",
                  count_calls("risk_bounds.estimate_risk_moments"))
        for name in RISK_CHECKS:
            self.wrap(risk_bounds, name, f"risk_bounds.{name}",
                      "risk_bounds.checks", count_calls("risk_bounds.checks"))

        def suite_counter(args, kwargs, reports):
            self.add("risk_bounds.reports", len(reports))
            self.add("risk_bounds.violations",
                     sum(not r.holds for r in reports))

        self.wrap(risk_bounds, "default_bound_suite",
                  "risk_bounds.default_bound_suite", "risk_bounds.suite",
                  suite_counter)
        self.wrap(core_model.JointMoments, "from_covariances",
                  "JointMoments.from_covariances", "core_model.joint_moments")
        self.wrap(risk_bounds, "joint_moments_restricted",
                  "risk_bounds.joint_moments_restricted",
                  "core_model.joint_moments")

        def cell_counter(args, kwargs, result):
            self.add("simulation.cells")
            self.add("simulation.replications", args[0].replications)

        for name in ("run_sweep", "gamma_sweep"):
            self.wrap(simulation, name, f"simulation.{name}", "simulation.sweep")
        self.wrap(simulation, "_run_cell", "simulation._run_cell",
                  "simulation.cell", cell_counter)
        self.wrap(simulation, "generate_design", "simulation.generate_design",
                  "simulation.generate_design")

        def rule_counter(args, kwargs, result):
            beta_hat = _arg(args, kwargs, 0, "beta_hat")
            shape = getattr(beta_hat, "shape", ())
            self.add("shrinkage.apply_rule.calls")
            self.add("shrinkage.apply_rule.rows",
                     shape[0] if len(shape) == 2 else 1)

        for module in (simulation, analysis, risk_bounds):
            self.wrap(module, "apply_rule", f"{module.__name__}.apply_rule",
                      "shrinkage.apply_rule", rule_counter)
        self._patch(shrinkage, "warnings", _CountingWarnings(self, "shrinkage"))
        self.wrap(analysis, "_design_rank", "analysis._design_rank",
                  "core_model.rank_check", count_calls("core_model.rank_check"))

        def bootstrap_counter(args, kwargs, report):
            self.add("analysis.replicates", report.bootstrap_replications)
            self.add("analysis.redraws", report.redraws)

        self.wrap(cli, "load_csv", "cli.load_csv", "analysis.load_csv")
        self.wrap(cli, "correlation_table", "cli.correlation_table",
                  "analysis.correlation_table")
        self.wrap(cli, "bootstrap_efficiency", "cli.bootstrap_efficiency",
                  "analysis.bootstrap_efficiency", bootstrap_counter)
        self.wrap(cli, "main", "cli.main", "cli.main")


class _CountingWarnings:
    """Stands in for the `warnings` module inside one package module and
    counts each warning by category before passing it on unchanged."""

    def __init__(self, tracer, layer):
        self._tracer, self._layer = tracer, layer

    def __getattr__(self, name):
        return getattr(warnings, name)

    def warn(self, message, category=None, stacklevel=1, source=None):
        name = (category or UserWarning).__name__
        self._tracer.add(f"{self._layer}.warning.{name}")
        # one level deeper, so the warning still points at the package line
        warnings.warn(message, category, stacklevel + 1, source)


def snapshot():
    """The namespaces of every module and class the tracer patches, so a
    check independent of the tracer's own bookkeeping can compare them."""
    from steinrule import (_rng, analysis, cli, core_model, distributions,
                           risk_bounds, shrinkage, simulation)
    owners = (_rng, analysis, cli, core_model, distributions, risk_bounds,
              shrinkage, simulation, core_model.JointMoments,
              distributions.EllipticalSpec)
    return [(owner, dict(vars(owner))) for owner in owners]


def unchanged(snap):
    """True when every namespace holds exactly the objects it held."""
    for owner, before in snap:
        after = vars(owner)
        if after.keys() != before.keys() or any(
                after[key] is not value for key, value in before.items()):
            return False
    return True


def layer_times(spans):
    """Per layer: inclusive time (outermost spans of the layer only) and
    self time (each span minus the time its child spans cover)."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time = {}, {}
    for i, (name, layer, start, end, parent) in enumerate(spans):
        dur = end - start
        self_time[layer] = self_time.get(layer, 0.0) + dur - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][1] != layer:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            total[layer] = total.get(layer, 0.0) + dur
    return total, self_time


def per_layer_metrics(counts, draw_keys, spans):
    """The counted metrics of one traced pass and its layer times."""
    c = counts.get
    total, self_time = layer_times(spans)
    t, s = total.get, self_time.get
    metrics = {
        "rng.normals.calls": c("rng.normals.calls", 0),
        "rng.normals.rows": c("rng.normals.rows", 0),
        "rng.normals.self_s": s("rng.normals", 0.0),
        "rng.uniforms.calls": c("rng.uniforms.calls", 0),
        "rng.uniforms.rows": c("rng.uniforms.rows", 0),
        "rng.uniforms.s": t("rng.uniforms", 0.0),
        "rng.uniforms.bytes_computed": c("rng.uniforms.bytes_computed", 0),
    }
    for name in SAMPLERS:
        layer = f"distributions.{name}"
        metrics[f"{layer}.calls"] = c(f"{layer}.calls", 0)
        metrics[f"{layer}.self_s"] = s(layer, 0.0)
    calls = c("distributions.sampler_calls", 0)
    metrics.update({
        "distributions.mixing_draws.rows": c("distributions.mixing_draws.rows", 0),
        "distributions.mixing_draws.self_s": s("distributions.mixing_draws", 0.0),
        "distributions.rows_drawn": c("distributions.rows_drawn", 0),
        "distributions.distinct_draw_ratio":
            len(draw_keys) / calls if calls else 0.0,
        "risk_bounds.estimate_risk_moments.calls":
            c("risk_bounds.estimate_risk_moments.calls", 0),
        "risk_bounds.estimate_risk_moments.self_s":
            s("risk_bounds.estimate_risk_moments", 0.0),
        "risk_bounds.checks.calls": c("risk_bounds.checks.calls", 0),
        "risk_bounds.checks.self_s": s("risk_bounds.checks", 0.0),
        "risk_bounds.reports": c("risk_bounds.reports", 0),
        "risk_bounds.violations": c("risk_bounds.violations", 0),
        "simulation.cells": c("simulation.cells", 0),
        "simulation.replications": c("simulation.replications", 0),
        "simulation.generate_design.s": t("simulation.generate_design", 0.0),
        "simulation.self_s": s("simulation.sweep", 0.0) + s("simulation.cell", 0.0),
    })
    rule_calls = c("shrinkage.apply_rule.calls", 0)
    rule_rows = c("shrinkage.apply_rule.rows", 0)
    replicates = c("analysis.replicates", 0)
    redraws = c("analysis.redraws", 0)
    metrics.update({
        "shrinkage.apply_rule.calls": rule_calls,
        "shrinkage.apply_rule.rows": rule_rows,
        "shrinkage.apply_rule.s": t("shrinkage.apply_rule", 0.0),
        "shrinkage.apply_rule.rows_per_call":
            rule_rows / rule_calls if rule_calls else 0.0,
        "shrinkage.degenerate_warnings":
            c("shrinkage.warning.DegenerateDifferenceWarning", 0),
        "core_model.rank_checks": c("core_model.rank_check.calls", 0),
        "core_model.rank_check_s": t("core_model.rank_check", 0.0),
        "core_model.joint_moments_s": t("core_model.joint_moments", 0.0),
        "analysis.load_csv.s": t("analysis.load_csv", 0.0),
        "analysis.correlation_table.s": t("analysis.correlation_table", 0.0),
        "analysis.bootstrap_efficiency.s": t("analysis.bootstrap_efficiency", 0.0),
        "analysis.bootstrap_efficiency.self_s":
            s("analysis.bootstrap_efficiency", 0.0),
        "analysis.replicates": replicates,
        "analysis.redraws": redraws,
        "analysis.useful_replicate_ratio":
            replicates / (replicates + redraws) if replicates else 0.0,
        "cli.main.s": t("cli.main", 0.0),
        "cli.self_s": s("cli.main", 0.0),
        "trace.spans": len(spans),
    })
    return metrics


def median_metrics(per_pass):
    """Median of each timed metric over traced passes; counts are taken
    from the first pass, since the self-test requires them to repeat."""
    return {key: value if isinstance(value, int)
            else statistics.median(m[key] for m in per_pass)
            for key, value in per_pass[0].items()}
