"""The benchmark's outside-in tracer still finds every name it wraps.

The tracer in perfbench/tracing.py replaces package functions by name; a
rename in the package would make `--trace 1` fail. This installs and
uninstalls it without running a workload, and edits nothing under
perfbench/.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


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
