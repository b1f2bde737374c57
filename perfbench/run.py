"""The pseudodet benchmark.  Standard library only.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it uses the package under ``src/``.

Workloads (the reasons are in BENCHMARK.json):

* ``check-all``        ``pseudodet check all --seed 42 --quiet --json FILE``
                       through ``cli.main``, one pass per fresh child process;
                       ``--seed`` does not change it (see report.py)
* ``product-formula``  ``product_formula_check`` with the trace as ``f``, on
                       every split n + m <= 6 of 2x2 and 3x3 rational and 2x2
                       mod-101 matrices
* ``det-charpoly``     determinant, multiplicativity and characteristic
                       polynomial against their oracles for d = 2..6, plus
                       the generic 3x3 matrix checks

The load is a closed loop: one caller, one thread, each op starts when the
previous one returns.  Every job runs in a fresh child process, one at a
time.  ``--trace 0`` runs passes until ``--seconds`` have gone and reports
the end-to-end metrics as medians over passes.  Its times are reference
seconds (see calib.py): each child also times a fixed reference loop every
20 ms, and each stretch of the program's time is scaled by how fast that
loop ran beside it, so that the speed of the shared host's cores, which
changes by up to a factor of two within seconds, cancels out.  The raw
seconds are in the provenance line.  ``--trace 1`` runs one
untraced pass and two traced passes of the same inputs, and reports the
per-layer metrics of the first traced pass; every count must be the same in
both traced passes, or the run fails.  Metric names and units are those of
BENCHMARK.json.  The last line of standard output is the result as JSON;
the lines before it print every metric with its unit, the provenance, and
any failure.  Spans and full results are written under ``.perfbench/``.

Exit status: 0 when every output was correct, 1 when an output was wrong
or a job failed, 2 when the package or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import report

WORKLOADS = ("check-all", "product-formula", "det-charpoly")
#: fresh interpreters timed for ``setup_s`` and ``cli.import_s``
SETUP_SAMPLES = 11
#: every job must end within this many seconds of the start
DEADLINE_S = 170.0
#: metrics of these units must repeat exactly between two traced passes
COUNT_UNITS = ("count", "bytes", "ratio")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    """A job of the benchmark could not run; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Jobs:
    """Starts child processes one at a time and reaps each with its
    resource usage.  Every child is killed at the deadline."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.out = os.path.join(root, ".perfbench")
        os.makedirs(self.out, exist_ok=True)
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def run(self, argv: list) -> tuple:
        """Run one child to its end: (exit code, wall seconds, rusage)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(argv))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{' '.join(argv)} killed by signal "
                             f"{-proc.returncode}")
        return proc.returncode, wall, usage

    def worker(self, mode: str, workload: str, seed: int, *extra) -> tuple:
        """Run ``worker.py``; returns (its JSON result, rusage)."""
        out = self.path(f"{mode}-{workload}.json")
        if os.path.exists(out):
            os.remove(out)
        rc, _, usage = self.run([os.path.join(HERE, "worker.py"), mode,
                                 "--workload", workload, "--seed", str(seed),
                                 "--out", out, *extra])
        if rc != 0:
            raise BenchError(f"worker {mode} for {workload} exited with {rc}")
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh), usage


# statistics -----------------------------------------------------------------

def tail(latencies: list) -> tuple:
    """The latency at the highest percentile with at least 10 samples beyond
    it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0    # ru_maxrss is in KiB on Linux


# end-to-end run -------------------------------------------------------------

def _setups(jobs: Jobs, workload: str, seed: int) -> list:
    return [jobs.worker("setup", workload, seed)[0]
            for _ in range(SETUP_SAMPLES)]


def _check_all_passes(jobs: Jobs, seconds: float) -> tuple:
    """``check all`` passes, one fresh child each, until ``seconds`` have
    gone; returns the checked passes and the children's peak RSS."""
    path = jobs.path("check-all-report.json")
    passes, rss = [], []
    start = time.perf_counter()
    while True:
        if os.path.exists(path):
            os.remove(path)
        result, usage = jobs.worker("cli", "check-all", report.SEED,
                                    "--report", path)
        checked = report.check(path, result["rc"])
        # op times from the child's clock, in reference seconds
        checked.update(wall_s=result["wall_s"], cpu_s=result["cpu_s"],
                       latencies_s=result["latencies_s"],
                       raw_wall_s=result["raw_wall_s"])
        passes.append(checked)
        rss.append(_rss_mb(usage))
        if time.perf_counter() - start >= seconds:
            return passes, rss


def end_to_end(jobs: Jobs, workload: str, seed: int, seconds: float) -> dict:
    setups = _setups(jobs, workload, seed)
    if workload == "check-all":
        passes, rss = _check_all_passes(jobs, seconds)
    else:
        result, usage = jobs.worker("measure", workload, seed,
                                    "--seconds", str(seconds))
        passes = result["passes"]
        for p in passes:
            p["checks"] = p["ops"]
            p["failed_ops"] = len(p["failures"])
        rss = [_rss_mb(usage)]
    # every pass runs the same ops; an op's latency is its median over the
    # passes, which keeps near-equal ops from trading places at a percentile
    ops = [statistics.median(times)
           for times in zip(*(p["latencies_s"] for p in passes))]
    if not ops:
        raise BenchError("a pass timed no op")
    op_tail, percentile = tail(ops)
    n = len(passes)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups),
                    len(setups)),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), n),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), n),
        "checks_per_s": (statistics.median(p["checks"] / p["wall_s"]
                                           for p in passes), n),
        "op_p50_ms": (statistics.median(ops) * 1e3, n * len(ops)),
        "op_tail_ms": (op_tail * 1e3, n * len(ops)),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
    }
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    info = {"passes": n, "ops_per_pass": [p["ops"] for p in passes],
            "checks_per_pass": [p["checks"] for p in passes],
            "raw_wall_s": [round(p["raw_wall_s"], 4) for p in passes],
            "raw_setup_s": [round(s["raw_setup_s"], 4) for s in setups],
            "op_tail_percentile": percentile,
            "fail_frac": failed / attempted if attempted else 1.0}
    failures = [f for p in passes for f in p["failures"]]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "info": info}


# traced run -----------------------------------------------------------------

def _single_pass(jobs: Jobs, workload: str, seed: int, traced: bool,
                 spans: bool = False) -> dict:
    """One pass in a fresh child, checked like the passes of a measured run."""
    extra = ["--spans", jobs.path(f"spans-{workload}.bin")] if spans else []
    if workload == "check-all":
        path = jobs.path("check-all-report.json")
        result, _ = jobs.worker("cli-trace" if traced else "cli", workload,
                                seed, "--report", path, *extra)
        checked = report.check(path, result["rc"])
        result.update(ops=checked["ops"], failures=checked["failures"],
                      failed_ops=checked["failed_ops"])
        return result
    result, _ = jobs.worker("trace" if traced else "measure", workload, seed,
                            *extra)
    if not traced:
        result = result["passes"][0]
    result.update(ops=len(result["latencies_s"]),
                  failed_ops=len(result["failures"]))
    return result


def per_layer(jobs: Jobs, workload: str, seed: int, units: dict) -> dict:
    setups = _setups(jobs, workload, seed)
    base = _single_pass(jobs, workload, seed, traced=False)
    first = _single_pass(jobs, workload, seed, traced=True, spans=True)
    second = _single_pass(jobs, workload, seed, traced=True)
    probes, _ = jobs.worker("probes", workload, seed)

    failures = []
    for name, value in first["layers"].items():
        other = second["layers"].get(name)
        if units.get(name) in COUNT_UNITS and other != value:
            failures.append(f"count {name} differs between two traced "
                            f"passes of seed {seed}: {value} vs {other}")
    layers = {name: (value, 1) for name, value in first["layers"].items()}
    layers["cli.import_s"] = (statistics.median(s["import_s"] for s in setups),
                              len(setups))
    layers["trace.wall_s"] = (first["wall_s"], 1)
    # the traced passes have no calibrator: compare raw seconds
    layers["trace.overhead_s"] = (first["wall_s"] - base["raw_wall_s"], 1)
    for name, row in probes.items():
        layers[name] = (row["value"], row["samples"])
    runs = (base, first, second)
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed_ops"] for r in runs)
    failures.extend(f for r in runs for f in r["failures"])
    return {"metrics": layers, "attempted": attempted, "failed": failed,
            "failures": failures,
            "info": {"traced_ops": first["ops"], "untraced_wall_s": base["raw_wall_s"],
                     "fail_frac": failed / attempted if attempted else 1.0}}


# provenance and output ------------------------------------------------------

def _commit(root: str):
    """HEAD commit read from ``.git`` when the checkout has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "pseudodet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _declared(root: str) -> tuple:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pseudodet", "__init__.py")):
        print("error: run from the repository root; src/pseudodet is missing",
              file=sys.stderr)
        return 2
    try:
        end_units, layer_units = _declared(root)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    jobs = Jobs(root, time.monotonic() + DEADLINE_S)
    units = layer_units if args.trace else end_units
    # the seed the inputs are made from; check-all always runs the headline
    seed = report.SEED if args.workload == "check-all" else args.seed
    try:
        if args.trace:
            run = per_layer(jobs, args.workload, seed, units)
        else:
            run = end_to_end(jobs, args.workload, seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    produced = run["metrics"]
    if set(produced) != set(units):
        missing = sorted(set(units) - set(produced))
        extra = sorted(set(produced) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
              f"not declared {extra}", file=sys.stderr)
        return 1

    correct = run["failed"] == 0 and not run["failures"]
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_seed": seed,
        "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": _commit(root),
        "src_sha256": _src_digest(root),
        "samples": {name: produced[name][1] for name in units},
        **run["info"],
    }
    metrics = {name: {"value": produced[name][0], "unit": units[name]}
               for name in units}
    for name in units:
        value, samples = produced[name]
        print(f"{name:<42} {value:>16.6f} {units[name]:<6} (samples {samples})")
    print(f"{'fail_frac':<42} {run['info']['fail_frac']:>16.6f} ratio  "
          f"({run['failed']} of {run['attempted']} ops)")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for line in run["failures"][:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    with open(jobs.path(f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": provenance,
                   "failures": run["failures"]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
