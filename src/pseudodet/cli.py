"""Command-line interface.

Subcommands:
  check <suite|all>   run verification suites and report pass/fail
  eval fn|det|charpoly --matrix FILE   one-off evaluations on a matrix

Exit codes: 0 when everything requested passed, 1 when a suite failed,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .elements import Matrix
from .errors import ConfigError, PseudodetError
from .pseudochar import char_poly, determinant, matrix_trace, recursive_form
from .rings import ring_from_spec
from .verify import (SUITE_NAMES, SuiteConfig, cell_configs,
                     default_all_configs, run_suite)

_CONFIG_KEYS = {"ring": str, "dim": int, "size": int, "trials": int,
                "seed": int, "bound": int, "budget": int}


def load_config_file(path: str, keys=_CONFIG_KEYS) -> dict:
    """Key-value config file: one ``key = value`` per line, ``#`` comments.

    Recognized keys are ``keys``, which mirror the command's flags; flags
    given on the command line take precedence.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                                  f"(expected one of {', '.join(keys)})")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return values


def read_matrix_file(path: str, ring):
    """Matrix file: first line is the size d, then d rows of d entries,
    each an integer or a fraction p/q, whitespace separated."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens_by_line = [ln.split() for ln in fh.read().splitlines()
                          if ln.strip()]
    if not tokens_by_line or len(tokens_by_line[0]) != 1:
        raise ConfigError(f"{path}: first line must be the matrix size")
    try:
        d = int(tokens_by_line[0][0])
    except ValueError:
        raise ConfigError(f"{path}: bad size {tokens_by_line[0][0]!r}") from None
    if d < 1:
        raise ConfigError(f"{path}: matrix size must be >= 1")
    rows = tokens_by_line[1:]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ConfigError(f"{path}: expected {d} rows of {d} entries")
    try:
        entries = [[Fraction(tok) for tok in row] for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: bad entry ({exc})") from None
    return Matrix(ring, entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudodet",
        description="Exact verification of multiset-ring and pseudocharacter "
                    "identities on concrete algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    _add_common_flags(check)
    for flag, text in (
            ("--size", "matrix size (default: the dimension)"),
            ("--trials", "number of randomized trials (default 50)"),
            ("--seed", "base PRNG seed (default 0)"),
            ("--bound", "matrix entries drawn from [-bound, bound] (default 5)"),
            ("--budget", "formal-product term budget (default 10^7)")):
        check.add_argument(flag, type=int, default=None, help=text)
    check.add_argument("--quiet", action="store_true",
                       help="only print the summary lines")

    ev = sub.add_parser("eval", help="evaluate forms on a matrix from a file")
    ev.add_argument("what", choices=("fn", "det", "charpoly"))
    ev.add_argument("--matrix", required=True, help="matrix file path")
    ev.add_argument("--n", type=int, default=None,
                    help="argument count for fn (default: the dimension)")
    _add_common_flags(ev)
    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=None,
                   help="declared dimension (default 2; for eval, the size)")
    p.add_argument("--ring", default=None,
                   help="rational | mod:<m> | words (default rational)")
    p.add_argument("--config", default=None, help="key-value config file")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write a JSON report to this path")


def _merged_options(args, keys) -> dict:
    """The values the user set for ``keys``: the file's, then the flags'."""
    options = load_config_file(args.config, keys) if args.config else {}
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    return options


def _check_configs(args, options) -> list:
    """The configs to run.  The ring defaults to rational and dim to 2
    (size to dim); trials, seed, bound and budget are passed on only when
    the user set them, so their defaults live in ``SuiteConfig`` alone.
    The word suite has no dim or size, and ``check all`` runs every matrix
    cell at size = dim, so a given size must equal each cell's dim."""
    shared = dict(options)
    ring = shared.pop("ring", None)
    dim = shared.pop("dim", None)
    size = shared.pop("size", None)
    if ring == "words":
        if dim is not None or size is not None:
            raise ConfigError("ring 'words' runs the exhaustive word suite, "
                              "which takes no --dim or --size")
        suite = "assoc" if args.suite == "all" else args.suite
        return [SuiteConfig(suite, ring="words", **shared)]
    explicit_cell = ring is not None or dim is not None
    ring = "rational" if ring is None else ring
    dim = 2 if dim is None else dim
    if args.suite != "all":
        size = dim if size is None else size
        return [SuiteConfig(args.suite, ring=ring, size=size, dim=dim,
                            **shared)]
    if explicit_cell:
        configs = cell_configs(ring, dim, **shared)
    else:
        configs = default_all_configs(**shared)
    if size is not None and any(cfg.ring == "words" or cfg.size != size
                                for cfg in configs):
        raise ConfigError(
            f"check all runs every matrix cell at size = dim and words at "
            f"no size; --size {size} does not fit every cell")
    return configs


def _run_check(args) -> int:
    options = _merged_options(args, _CONFIG_KEYS)
    configs = _check_configs(args, options)
    for cfg in configs:  # all of them, before any suite prints a result
        cfg.validate()
    reports = []
    start = time.perf_counter()
    for cfg in configs:
        report = run_suite(cfg)
        reports.append(report)
        for line in report.text_lines(quiet=args.quiet):
            _say(line)
    total = time.perf_counter() - start
    all_pass = all(r.passed for r in reports)
    _say(f"{'PASS' if all_pass else 'FAIL'}: {len(reports)} suite(s) "
         f"in {total:.2f}s")

    if args.json_path:
        document = {
            "command": "check",
            "selection": args.suite,
            "seed": configs[0].seed,
            "pass": all_pass,
            "suites": [r.to_dict() for r in reports],
            "total_duration_seconds": total,
        }
        _write_json(args.json_path, document)
    return 0 if all_pass else 1


def _run_eval(args) -> int:
    options = _merged_options(args, ("ring", "dim"))
    ring_spec = options.get("ring", "rational")
    if ring_spec == "words":
        raise ConfigError("eval needs a matrix ring (rational or mod:<m>)")
    try:
        ring = ring_from_spec(ring_spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    x = read_matrix_file(args.matrix, ring)
    dim = options.get("dim", x.n)
    if dim < 1:
        raise ConfigError("--dim must be >= 1")
    f = matrix_trace(ring, x.n, dim, pseudocharacter=False)
    if args.what == "fn":
        n = args.n if args.n is not None else dim
        if n < 1:
            raise ConfigError("--n must be >= 1")
        rendered = ring.render(recursive_form(f, (x,) * n))
    elif args.what == "det":
        rendered = ring.render(determinant(f, x))
    else:
        rendered = char_poly(f, x).render()
    _say(rendered)
    if args.json_path:
        document = {"command": "eval", "what": args.what,
                    "ring": ring_spec, "dim": dim,
                    "matrix": x.render(), "result": rendered}
        _write_json(args.json_path, document)
    return 0


def _say(line: str) -> None:
    """Print one line of output.  Once the reader of stdout has gone (a
    pipe into ``head``), stdout is pointed at the null device, so the run
    still finishes, writes its JSON and exits with its verdict."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        return _run_eval(args)
    except (ConfigError, PseudodetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
