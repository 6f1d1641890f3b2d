"""One fresh benchmark process. run.py starts it in one of two modes and
reads the JSON object it prints as its last line.

  round    time `import steinrule` and building the inputs (set-up), warm
           up, then closed-loop untraced passes for --seconds
  trace    alternate traced and untraced passes for --seconds, self-test
           the tracer and report per-layer metrics
"""

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only: the set-up clock starts after it)


def _checked_pass(workload, inputs):
    """Run one pass; returns (result, wall, cpu, problems)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        result = workload.run(inputs)
    except Exception as exc:  # a failing pass is counted, not fatal
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return None, wall, cpu, [f"raised {type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return result, wall, cpu, workload.check(inputs, result)


def _environment():
    import numpy
    import scipy
    import steinrule
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "steinrule": steinrule.__version__,
            "steinrule_path": os.path.dirname(steinrule.__file__),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _warm(workload, seed, root, problems):
    """One untimed pass at reduced size: lazy imports and caches settle."""
    warm_inputs = workload.build(seed, root, warm=True)
    _, _, _, found = _checked_pass(workload, warm_inputs)
    problems.extend(f"warm-up: {p}" for p in found)


def _round(workload, seed, seconds, root):
    import resource
    launched = time.perf_counter()
    import steinrule  # noqa: F401
    imported = time.perf_counter()
    inputs = workload.build(seed, root)
    built = time.perf_counter()
    problems = []
    _warm(workload, seed, root, problems)
    attempted, failed = 1, int(bool(problems))
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        _, wall, cpu, found = _checked_pass(workload, inputs)
        walls.append(wall)
        cpus.append(cpu)
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"import_s": imported - launched, "setup_s": built - launched,
            "walls": walls, "cpus": cpus,
            "units_per_pass": workload.units(inputs), "unit": workload.unit,
            "peak_rss_mb": peak_kb / 1024.0, "attempted": attempted,
            "failed": failed, "problems": problems[:20],
            "sizes": workload.sizes(inputs), "environment": _environment()}


def _trace(workload, seed, seconds, root):
    import tracing
    inputs = workload.build(seed, root)
    problems = []
    _warm(workload, seed, root, problems)
    attempted, failed = 1, int(bool(problems))
    reference, _, _, found = _checked_pass(workload, inputs)
    attempted += 1
    if found:
        failed += 1
        problems.extend(found)
    reference = workload.fingerprint(reference) if reference is not None else None

    tracer = tracing.Tracer()
    traced_walls, untraced_walls, per_pass, count_sets = [], [], [], []
    spans_out, self_test = None, set()
    start = time.perf_counter()
    while len(traced_walls) < 2 or (
            time.perf_counter() - start + traced_walls[-1] + untraced_walls[-1]
            <= seconds):
        tracer.reset()
        before = tracing.snapshot()
        tracer.install()
        try:
            result, wall, _, found = _checked_pass(workload, inputs)
        finally:
            tracer.uninstall()
        if not tracing.unchanged(before):
            self_test.add("a wrapped function was not restored")
        traced_walls.append(wall)
        per_pass.append(tracing.per_layer_metrics(tracer.counts, tracer.draw_keys,
                                                tracer.spans))
        count_sets.append(dict(tracer.counts))
        if spans_out is None:
            spans_out = tracer.spans
        if result is None or workload.fingerprint(result) != reference:
            self_test.add("a traced pass differs from the untraced pass")
        _, wall, _, found_untraced = _checked_pass(workload, inputs)
        untraced_walls.append(wall)
        attempted += 2
        for found_pass in (found, found_untraced):
            if found_pass:
                failed += 1
                problems.extend(found_pass)
    if any(counts != count_sets[0] for counts in count_sets[1:]):
        self_test.add("counts differ between traced passes")

    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    spans_path = os.path.join(root, ".perfbench_out",
                              f"spans-{workload.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                   "spans": spans_out}, fh)
    return {"metrics": metrics, "traced_walls": traced_walls,
            "untraced_walls": untraced_walls, "spans_file": spans_path,
            "counts": count_sets[0], "self_test": sorted(self_test),
            "attempted": attempted, "failed": failed,
            "problems": problems[:20], "sizes": workload.sizes(inputs),
            "environment": _environment()}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("round", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "round":
        out = _round(workload, args.seed, args.seconds, args.root)
    else:
        out = _trace(workload, args.seed, args.seconds, args.root)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
