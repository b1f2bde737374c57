"""Child process of the benchmark: one fresh interpreter per job.

    python3 perfbench/worker.py MODE --workload W --seed N --out FILE [...]

MODE is one of

* ``setup``     import ``pseudodet`` and ``pseudodet.cli``, build the inputs
* ``measure``   set up, then run passes until ``--seconds`` have gone
* ``trace``     set up, then one traced pass; spans go to ``--spans``
* ``cli``       run ``pseudodet check all`` in-process, untraced
* ``cli-trace`` the same, traced
* ``probes``    the layer probe rows

``setup``, ``measure`` and ``cli`` run under a :class:`calib.Calibrator`
and give their times in reference seconds; the raw seconds of a pass are
kept as ``raw_wall_s``.  The traced modes and the probes give raw seconds.
The result is written as JSON to ``--out``.  ``PYTHONPATH`` must reach the
package (the runner sets it to ``src``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import calib

T0 = time.perf_counter()   # set-up is timed from here: before any import
                           # of the package
CALIBRATED = ("setup", "measure", "cli")


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "trace", "cli",
                                    "cli-trace", "probes"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="check-all: JSON report path")
    p.add_argument("--spans", help="traced modes: where to write the spans")
    return p.parse_args(argv)


def _setup(workload: str, seed: int):
    """Import the package and build the inputs; returns (inputs, raw
    ``perf_counter`` readings at the end of the import and of set-up)."""
    import pseudodet.cli  # noqa: F401
    imported = time.perf_counter()
    if workload == "check-all":
        from pseudodet import verify
        inputs = verify.default_all_configs(seed=seed)
    else:
        import workloads
        raw = workloads.build(workload, seed)
        inputs = (raw, workloads.materialize(workload, raw))
    return inputs, (imported, time.perf_counter())


def _cli_argv(args) -> list:
    return ["check", "all", "--seed", str(args.seed), "--quiet",
            "--json", args.report]


def _run_cli(args, tracer=None) -> dict:
    """One ``check all`` pass.  ``cli.run_suite`` is wrapped to record when
    each suite (one op) starts and ends; nothing else is touched."""
    from pseudodet import cli
    run_suite = cli.run_suite
    bounds = []

    def timed_suite(cfg):
        t0 = time.perf_counter()
        try:
            return run_suite(cfg)
        finally:
            bounds.append((t0, time.perf_counter()))

    cli.run_suite = timed_suite
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        rc = cli.main(_cli_argv(args))
    finally:
        cli.run_suite = run_suite
    end = time.perf_counter()
    result = {"start": start, "end": end,
              "cpu_s": time.process_time() - cpu0, "bounds": bounds,
              "rc": rc}
    if tracer is not None:
        result["layers"] = _report_layers(args.report, tracer)
    return result


def _report_layers(path: str, tracer) -> dict:
    """Report-derived counts: bytes of the report body and the share of
    rendered formal-sum bytes the report keeps."""
    import report
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    body = json.dumps(report.strip_durations(doc), indent=2, sort_keys=True)
    kept = sum(len(c["lhs"]) + len(c["rhs"]) for s in doc["suites"]
               if s["suite"] in ("assoc", "functoriality") for c in s["checks"])
    return {"cli.report_bytes": len(body) + 1,
            "verify.render_kept_ratio":
                kept / tracer.rendered_bytes if tracer.rendered_bytes else 0.0}


def _times(run: dict, cal=None) -> dict:
    """Replace the raw readings of a pass by its wall, CPU and op times:
    in reference seconds under a calibrator, else raw.  ``raw_wall_s`` is
    the raw wall time less that of any reference loops in it."""
    start, end, bounds = run.pop("start"), run.pop("end"), run.pop("bounds")
    if cal is None:
        run["wall_s"] = run["raw_wall_s"] = end - start
        run["latencies_s"] = [b - a for a, b in bounds]
        return run
    wall = cal.seconds(start, end)
    raw_wall = end - start - cal.loops_s(start, end)
    # the CPU time of the program, less that of the reference loops, at the
    # pass's mean reference speed
    run["cpu_s"] = (run["cpu_s"] - (end - start - raw_wall)) * wall / raw_wall
    run["wall_s"] = wall
    run["raw_wall_s"] = raw_wall
    run["latencies_s"] = [cal.seconds(a, b) for a, b in bounds]
    return run


def _traced(args, body) -> dict:
    import tracer as tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    result = _times(body(tracer))
    layers = tracing.analyse(tracer)
    # no report in the in-process workloads
    layers.update(result.pop("layers", {"cli.report_bytes": 0,
                                        "verify.render_kept_ratio": 0.0}))
    result["layers"] = layers
    if args.spans:
        tracer.write(args.spans)
    return result


def _measure(args, raw, ops) -> list:
    """Passes until ``--seconds`` have gone (at least one), each on fresh
    input objects."""
    import workloads
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(ops))
        if time.perf_counter() - start >= args.seconds:
            return passes
        ops = workloads.materialize(args.workload, raw)


def main(argv=None) -> int:
    args = _parse(argv)
    cal = calib.Calibrator().install() if args.mode in CALIBRATED else None
    if args.mode == "probes":
        import probes
        result = probes.run()
    else:
        inputs, (imported, set_up) = _setup(args.workload, args.seed)
        if args.mode == "setup":
            result = {}
        elif args.mode == "cli":
            result = _run_cli(args)
        elif args.mode == "cli-trace":
            result = _traced(args, lambda tr: _run_cli(args, tr))
        elif args.mode == "trace":
            import workloads
            result = _traced(args, lambda tr: workloads.run_pass(inputs[1]))
        else:
            result = {"passes": _measure(args, *inputs)}
        if cal is not None:
            cal.stop()
        convert = cal.seconds if cal is not None else (lambda a, b: b - a)
        result.update(setup_s=convert(T0, set_up),
                      import_s=convert(T0, imported), raw_setup_s=set_up - T0)
        if args.mode == "cli":
            _times(result, cal)
        for run in result.get("passes", ()):
            _times(run, cal)
        if cal is not None:
            result["reference_loops"] = cal.samples
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
