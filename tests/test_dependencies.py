"""The runtime dependency surface: numpy plus scipy.special, nothing more."""

import os
import subprocess
import sys

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter, so modules other tests imported do not count
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, steinrule; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    loaded = [m for m in out
              if any(m == pkg or m.startswith(pkg + ".") for pkg in HEAVY)]
    assert loaded == []
    assert "scipy.special" in out
