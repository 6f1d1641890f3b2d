"""The runtime dependency surface: numpy plus scipy.special, nothing more;
and the CLI's surface: the package's public names."""

import ast
import os
import subprocess
import sys

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.linalg")


def _fresh(code):
    """Standard output of `code` run in a fresh interpreter, so modules and
    threads other tests started do not count."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_heavy_scipy_subpackage():
    out = _fresh("import sys, steinrule; print(*sys.modules)").split()
    loaded = [m for m in out
              if any(m == pkg or m.startswith(pkg + ".") for pkg in HEAVY)]
    assert loaded == []
    assert "scipy.special" in out


def test_import_starts_no_thread():
    # the chunk runner starts its helper threads per call. scipy already
    # loads concurrent.futures through numpy.testing, but not its executor
    out = _fresh("import sys, threading, steinrule; "
                 "print(threading.active_count(), "
                 "'concurrent.futures.thread' in sys.modules)")
    assert out.split() == ["1", "False"]


def test_cli_imports_no_private_name():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "src", "steinrule", "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.startswith("steinrule"))
                for alias in node.names]
    assert [name for name in imported
            if any(part.startswith("_") for part in name.split("."))] == []
