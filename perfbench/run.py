"""Benchmark of the steinrule package.

    python3 perfbench/run.py --workload {bound-suite,sweep,analyze}
        --seed N --seconds S --trace {0,1}

Run from the repository root. With --trace 0 it prints the end-to-end
metrics of one workload: set-up and import time (median over fresh
processes), then closed-loop passes for S seconds in one fresh process
with one client. With --trace 1 it runs the traced passes instead and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A run record and the
spans of one traced pass go to .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("bound-suite", "sweep", "analyze")
# fixed BLAS thread count, no larger than nproc on any machine
BLAS_THREADS = 1
ROUNDS = 6
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(cmd, deadline, capture_stderr=False):
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if capture_stderr else None,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {' '.join(cmd[1:4])}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(cmd[1:4])}")
    return proc


def _worker(mode, args, deadline, seconds=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--root", ROOT]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    lines = _run_child(cmd, deadline).stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child printed nothing")
    return json.loads(lines[-1])


def _import_breakdown(deadline):
    """Self import time per top-level package, from -X importtime."""
    proc = _run_child([sys.executable, "-X", "importtime", "-c",
                       "import steinrule"], deadline, capture_stderr=True)
    self_us, scipy_modules = {}, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        module = fields[2].strip()
        top = module.split(".")[0]
        self_us[top] = self_us.get(top, 0) + int(fields[0])
        scipy_modules += top == "scipy"
    return {"import.steinrule_s": self_us.get("steinrule", 0) / 1e6,
            "import.scipy_s": self_us.get("scipy", 0) / 1e6,
            "import.numpy_s": self_us.get("numpy", 0) / 1e6,
            "import.scipy_modules": scipy_modules}


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _machine():
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"L{level}"] = size
    return info


def _end_to_end(args, deadline):
    # Rounds of fresh processes spread set-up samples and passes over the
    # whole run, so both see the same spells of machine load.
    rounds = [_worker("round", args, deadline, seconds=args.seconds / ROUNDS)
              for _ in range(ROUNDS)]
    walls = [w for r in rounds for w in r["walls"]]
    cpus = [c for r in rounds for c in r["cpus"]]
    units = rounds[0]["units_per_pass"]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "import_s": (statistics.median(r["import_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "throughput": (units * len(walls) / sum(walls), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"BLAS threads {BLAS_THREADS}  closed loop, 1 client, "
          f"{ROUNDS} fresh processes")
    notes = {
        "setup_s": f"median of {ROUNDS} fresh processes, import to inputs built",
        "import_s": f"median of {ROUNDS} fresh processes",
        "wall_s": f"median of {len(walls)} passes, min {min(walls):.4f} "
                  f"max {max(walls):.4f}",
        "throughput": f"{rounds[0]['unit']} per second, {units} per pass",
        "cpu_s": "process CPU time per pass, median",
        "peak_rss_mb": "ru_maxrss per process, median",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>14.6g} {unit:<4} {notes[name]}")
    print(f"  {'fail_ratio':<12} {failed / attempted:>14.6g} {'ratio':<4} "
          f"{failed} of {attempted} passes failed (warm-ups included)")
    child = dict(rounds[0], problems=[p for r in rounds for p in r["problems"]])
    record = {"rounds": [{key: r[key] for key in
                          ("import_s", "setup_s", "walls", "cpus", "peak_rss_mb")}
                         for r in rounds]}
    return metrics, attempted, failed, child, record


def _per_layer(args, deadline):
    traced = _worker("trace", args, deadline, seconds=args.seconds)
    metrics = dict(traced["metrics"])
    metrics.update(_import_breakdown(deadline))
    units = {}
    for name in metrics:
        if name.endswith("_s") or name.endswith(".s"):
            units[name] = "s"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        elif name.endswith("bytes_computed"):
            units[name] = "bytes"
        elif name.endswith("rows_per_call"):
            units[name] = "rows/call"
        else:
            units[name] = "count"
    print(f"workload {args.workload}  seed {args.seed}  traced passes "
          f"{len(traced['traced_walls'])}, untraced {len(traced['untraced_walls'])}")
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    if not traced["self_test"]:
        print("  self-test: counts repeat, traced output bitwise equal to "
              "untraced, originals restored")
    metrics = {name: (value, units[name]) for name, value in metrics.items()}
    record = {"traced_walls": traced["traced_walls"],
              "untraced_walls": traced["untraced_walls"],
              "self_test": traced["self_test"], "counts": traced["counts"],
              "spans_file": os.path.relpath(traced["spans_file"], ROOT)}
    return metrics, traced["attempted"], traced["failed"], traced, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for needed in (os.path.join("src", "steinrule", "__init__.py"),
                   os.path.join("tests", "data", "cigarette.csv")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    run = _per_layer if args.trace else _end_to_end
    try:
        metrics, attempted, failed, child, record = run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    expected_src = os.path.join(ROOT, "src", "steinrule")
    if child["environment"]["steinrule_path"] != expected_src:
        print(f"error: imported steinrule from "
              f"{child['environment']['steinrule_path']}", file=sys.stderr)
        return 1
    problems = list(dict.fromkeys(child["problems"] + child.get("self_test", [])))
    for problem in problems:
        print(f"  check FAILED: {problem}")

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "environment": child["environment"], "machine": _machine(),
        "blas_threads": BLAS_THREADS, "inputs": child["sizes"],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"record: {os.path.relpath(path, ROOT)}  sha {record['git_sha'][:12]}  "
          f"{json.dumps(record['environment'])}  {json.dumps(record['machine'])}  "
          f"inputs {json.dumps(record['inputs'])}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
