"""The benchmark's outside-in tracer still finds every name it wraps,
and a traced bound suite and analyze pass repeat their counts and their
reports.

The tracer in perfbench/tracing.py replaces package functions by name; a
rename in the package would make `--trace 1` fail. The first test installs
and uninstalls it without running a workload; the others run a small
bound suite and a small analyze pass under it, as `--trace 1` does. All
only import the tracer and edit nothing under perfbench/.
"""

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


def test_traced_bound_suite_repeats_and_matches(monkeypatch):
    # what `run.py --trace 1` checks on the bound suite, on one thread:
    # the tracer keeps one span stack for all threads
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    from steinrule import _rng, risk_bounds

    monkeypatch.setattr(_rng, "_worker_count", lambda: 1)
    count = 3 * _rng.chunk_rows(6) + 17
    untraced = _bits(risk_bounds.default_bound_suite(count=count, seed=0))
    snap = tracing.snapshot()
    tracer = tracing.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            reports = risk_bounds.default_bound_suite(count=count, seed=0)
        finally:
            tracer.uninstall()
        runs.append((dict(tracer.counts), _bits(reports)))
    assert tracing.unchanged(snap)
    (counts, traced), (counts_again, traced_again) = runs
    assert counts == counts_again
    assert counts["risk_bounds.reports"] == len(untraced)
    assert counts["rng.normals.calls"] > 0
    assert traced == untraced and traced_again == untraced


def test_traced_analyze_repeats_and_matches(monkeypatch, tmp_path, capsys):
    # what `run.py --trace 1` checks on analyze, on one thread for the
    # same reason as above
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    from steinrule import _rng, cli

    monkeypatch.setattr(_rng, "_worker_count", lambda: 1)
    out = tmp_path / "report.json"
    argv = ["analyze", "--data", os.path.join(DATA, "cigarette.csv"),
            "--response", "co", "--covariates", "tar,nicotine,weight",
            "--bootstrap", "2000", "--seed", "0", "--out", str(out)]

    def analyze():
        assert cli.main(argv) == 0
        return capsys.readouterr().out, out.read_bytes()

    untraced = analyze()
    snap = tracing.snapshot()
    tracer = tracing.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            report = analyze()
        finally:
            tracer.uninstall()
        runs.append((dict(tracer.counts), report))
    assert tracing.unchanged(snap)
    (counts, traced), (counts_again, traced_again) = runs
    assert counts == counts_again
    assert counts["analysis.replicates"] == 2000
    assert counts["rng.uniforms.calls"] == len(list(_rng.chunks(2000, 25 * 4)))
    assert traced == untraced and traced_again == untraced
