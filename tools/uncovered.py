"""List the lines of ``src/pseudodet`` that no tier-1 test runs.

Usage:

    python tools/uncovered.py [extra pytest arguments]

The tier-1 suite runs in this process under a line tracer installed with
``sys.settrace`` and ``threading.settrace`` before anything imports the
package, so module-level lines count too.  Afterwards each line of
``src/pseudodet/*.py`` that compiled code can run (a line of some code
object's ``co_lines()``) and that never ran is printed as
``path:line: text``.  The exit status is pytest's.

Only this process is traced.  Code that runs in a child process (the CLI
runs of ``tests/test_mutants.py``, the piped ``check all`` of
``TestClosedStdout``, the ``python -m pseudodet`` run of
``tests/test_cli.py``) is not seen, so for example ``cli._say``'s
broken-pipe branch, the ``sys.exit(main())`` line under ``__main__`` and
the lines of ``__main__.py`` are listed as unrun although a child ran
them.  Standard library only, besides the pytest that tier-1 needs;
tracing makes the suite several times slower.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pseudodet")


def runnable_lines(source: str, path: str) -> set:
    """The line numbers that the compiled code of ``source`` can run."""
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    sources = sorted(os.path.join(PACKAGE, name)
                     for name in os.listdir(PACKAGE) if name.endswith(".py"))
    ran = {path: set() for path in sources}
    by_name = {}  # co_filename -> the local tracer of its file, or None

    def tracer(lines):
        """The one local tracer of a file: it adds each line run to
        ``lines``.  Built once per file, not per frame, so tracing leaves
        no per-frame closure for the cyclic collector to find."""
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            local = by_name[name]
        except KeyError:
            lines = ran.get(os.path.abspath(name))
            local = by_name[name] = None if lines is None else tracer(lines)
        if local is not None:
            local(frame, "line", arg)  # the line the frame starts on
        return local

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              os.path.join(ROOT, "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sources:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        text = source.split("\n")
        for line in sorted(runnable_lines(source, path) - ran[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: "
                  f"{text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
