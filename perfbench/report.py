"""Correctness of a ``pseudodet check all --seed 42`` JSON report.

The report body is compared with the stripping of acceptance criterion 10:
every ``*duration_seconds`` key removed, then
``json.dumps(..., sort_keys=True, separators=(",", ":"))``.  Its sha256 and
each suite's digest must match those recorded in ``digests.json``, so a
changed byte in any report body fails that suite.
"""

from __future__ import annotations

import hashlib
import json
import os

#: The headline seed of the ROADMAP.  check-all always runs it: the work of
#: ``check all`` differs by a third between seeds (its assoc trials draw
#: random cardinalities), which would swamp any regression bound.
SEED = 42
SUITES = 73
_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "digests.json")


def strip_durations(node):
    if isinstance(node, dict):
        return {k: strip_durations(v) for k, v in node.items()
                if not k.endswith("duration_seconds")}
    if isinstance(node, list):
        return [strip_durations(v) for v in node]
    return node


def digest(node) -> str:
    body = json.dumps(strip_durations(node), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()


def check(path: str, rc: int) -> dict:
    """Check one report against the recorded digests.

    Returns the op latencies (one op per suite), the check count, the
    failures (one line per failed suite or whole-report fault) and the
    failed op count."""
    with open(_DIGESTS, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        suites = doc["suites"]
    except (OSError, ValueError, KeyError) as exc:
        return {"latencies_s": [], "checks": 0, "ops": SUITES,
                "failures": [f"report unreadable: {exc}"],
                "failed_ops": SUITES}
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    whole = digest(doc)
    if whole != reference["report"]:
        failures.append(f"report digest {whole} != {reference['report']}")
    whole_faults = len(failures)
    for i in range(max(SUITES, len(suites))):
        if i >= len(suites):
            failures.append(f"suite {i} missing")
            continue
        s = suites[i]
        if not s.get("pass"):
            failures.append(f"suite {i} ({s['suite']}) failed: {s['counts']}")
        elif (i >= len(reference["suites"])
              or digest(s)[:16] != reference["suites"][i]):
            failures.append(f"suite {i} ({s['suite']}) body changed")
    suite_faults = len(failures) - whole_faults
    return {"latencies_s": [s["duration_seconds"] for s in suites],
            "checks": sum(len(s["checks"]) for s in suites),
            "ops": max(SUITES, len(suites)), "failures": failures,
            # a fault of the whole report alone still fails one op
            "failed_ops": suite_faults or min(whole_faults, 1)}
