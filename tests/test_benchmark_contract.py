"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` finds each class it traces by module and name, and
each traced method in that class's own ``__dict__``.  Renaming one of those
classes, or moving one of those methods into a base class, makes
``install`` raise, which breaks ``perfbench/run.py --trace 1``.  The
workloads and probes call public functions by name and keyword; removing
one of those makes their ops fail.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # a subprocess, because install rebinds the package's functions
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.install(tracer.Tracer())")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_ops_and_probes_run():
    """Builds one pass of each in-process workload at seed 42, runs every
    op with ``workloads.run_pass`` and calls every probe row once: the
    functions and keywords the benchmark calls exist and give the
    outcomes it expects.  Reads ``perfbench/`` and changes nothing."""
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import probes
        import workloads
        for name in ("product-formula", "det-charpoly"):
            ops = workloads.materialize(name, workloads.build(name, 42))
            result = workloads.run_pass(ops)
            assert result["ops"] == len(ops) > 0, name
            assert result["failures"] == [], (name, result["failures"][:3])
        for _, _, call in probes.rows():
            call()
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
