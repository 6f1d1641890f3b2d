"""The benchmark's outside-in tracer still finds every name it wraps,
and a traced bound suite and analyze pass repeat their counts and their
reports.

The tracer in perfbench/tracing.py replaces package functions by name; a
rename in the package would make `--trace 1` fail. The first test installs
and uninstalls it without running a workload; the others run a small
bound suite and two small analyze passes, one of them on a design that
redraws, under it, as `--trace 1` does. All only import the tracer and
edit nothing under perfbench/.
"""

import json
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    snap = tracing.snapshot()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert not tracing.unchanged(snap)
    finally:
        tracer.uninstall()
    assert tracing.unchanged(snap)


def _bits(reports):
    return [(r.name, r.holds) + tuple(float(getattr(r, f)).hex() for f in
                                      ("lhs", "rhs", "slack", "tolerance"))
            for r in reports]


def _trace_twice(tracing, run):
    """Two passes of run() under one tracer, reset before each: the counts
    and result of each. The tracer must restore every name it wraps."""
    snap = tracing.snapshot()
    tracer = tracing.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            result = run()
        finally:
            tracer.uninstall()
        runs.append((dict(tracer.counts), result))
    assert tracing.unchanged(snap)
    return runs


def test_traced_bound_suite_repeats_and_matches(monkeypatch):
    # what `run.py --trace 1` checks on the bound suite, on one thread:
    # the tracer keeps one span stack for all threads
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    from steinrule import _rng, risk_bounds

    monkeypatch.setattr(_rng, "_worker_count", lambda: 1)
    count = 3 * _rng.chunk_rows(6) + 17
    untraced = _bits(risk_bounds.default_bound_suite(count=count, seed=0))
    (counts, traced), (counts_again, traced_again) = _trace_twice(
        tracing, lambda: _bits(
            risk_bounds.default_bound_suite(count=count, seed=0)))
    assert counts == counts_again
    assert counts["risk_bounds.reports"] == len(untraced)
    assert counts["rng.normals.calls"] > 0
    assert traced == untraced and traced_again == untraced


def _trace_analyze(monkeypatch, tmp_path, capsys, args):
    """One untraced and two traced `analyze` passes on one thread, for the
    same reason as above: the untraced stdout and report bytes, and the
    traced passes' counts, once each traced pass is checked to match."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    from steinrule import _rng, cli

    monkeypatch.setattr(_rng, "_worker_count", lambda: 1)
    out = tmp_path / "report.json"

    def analyze():
        assert cli.main(["analyze", *args, "--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    untraced = analyze()
    (counts, traced), (counts_again, traced_again) = _trace_twice(
        tracing, analyze)
    assert counts == counts_again
    assert traced == untraced and traced_again == untraced
    return untraced, counts


def test_traced_analyze_repeats_and_matches(monkeypatch, tmp_path, capsys):
    # what `run.py --trace 1` checks on analyze
    from steinrule import _rng

    _, counts = _trace_analyze(monkeypatch, tmp_path, capsys, [
        "--data", os.path.join(DATA, "cigarette.csv"), "--response", "co",
        "--covariates", "tar,nicotine,weight", "--bootstrap", "2000",
        "--seed", "0"])
    assert counts["analysis.replicates"] == 2000
    assert counts["rng.uniforms.calls"] == len(list(_rng.chunks(2000, 25 * 4)))


def test_traced_analyze_with_redraws_repeats_and_matches(
        monkeypatch, tmp_path, capsys):
    # the brand data makes no redraws, so the pass above never reaches the
    # rank check. Here a dummy set in one row of eight makes thousands,
    # ranked a block of _rng.chunk_rows(n k) candidates per call
    from steinrule import _rng

    path = tmp_path / "sparse.csv"
    path.write_text("\n".join(["y,x,d"] + [
        f"{0.3 * i + (i % 3)},{i},{int(i == 0)}" for i in range(8)]) + "\n")
    (_, report), counts = _trace_analyze(monkeypatch, tmp_path, capsys, [
        "--data", str(path), "--response", "y", "--covariates", "x,d",
        "--bootstrap", "5000", "--seed", "1"])
    redraws = json.loads(report)["redraws"]
    assert counts["analysis.redraws"] == redraws
    blocks = -(-redraws // _rng.chunk_rows(8 * 3))
    assert counts["core_model.rank_check.calls"] == blocks > 1
