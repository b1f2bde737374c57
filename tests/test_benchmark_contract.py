"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` finds each class it traces by module and name, and
each traced method in that class's own ``__dict__``.  Renaming one of those
classes, or moving one of those methods into a base class, makes
``install`` raise, which breaks ``perfbench/run.py --trace 1``.
"""

import os
import subprocess
import sys
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
