"""Command-line interface.

Subcommands:
  check <suite|all>   run verification suites and report pass/fail
  eval fn|det|charpoly --matrix FILE   one-off evaluations on a matrix

Exit codes: 0 when everything requested passed, 1 when a suite failed
(an exception inside a suite fails that suite alone), 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import re
import sys
import time
from fractions import Fraction

from .elements import Matrix
from .errors import ConfigError, PseudodetError
from .pseudochar import (_check_arity, char_poly, determinant, matrix_trace,
                         recursive_form)
from .rings import ring_from_spec
from .verify import SUITE_NAMES, SuiteConfig, default_all_configs, run_suite

#: what the user types, in ASCII digits: an integer is p, an entry p or p/q
_INT = re.compile(r"[+-]?[0-9]+")
_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _integer(text: str) -> int:
    """``text`` as an int, if it is one in ASCII digits (``_INT``)."""
    if _INT.fullmatch(text):
        with contextlib.suppress(ValueError):  # past int()'s digit limit
            return int(text)
    raise argparse.ArgumentTypeError(f"not an ASCII integer: {text!r}")


#: ``check``'s settable values, each with its parser
_CONFIG_KEYS = {k: _integer if type(v) is int else str for k, v in
                SuiteConfig(SUITE_NAMES[0]).fields().items() if k != "suite"}


def _read_text(path: str) -> str:
    """The text of the file at ``path``; ConfigError if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None


def load_config_file(path: str, keys=_CONFIG_KEYS) -> dict:
    """Key-value config file: one ``key = value`` per line, ``#`` comments.

    Recognized keys are ``keys``, which mirror the command's flags; flags
    given on the command line take precedence.
    """
    values = {}
    # only "\n" ends a line: str.splitlines() also splits at form feeds
    for lineno, raw in enumerate(_read_text(path).split("\n"), 1):
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
        except argparse.ArgumentTypeError:
            raise ConfigError(
                f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return values


def _read_number(path: str, what: str, tok: str, grammar) -> Fraction:
    """``tok`` as a Fraction, if it matches ``grammar`` and ``Fraction``
    takes it (q != 0, under int()'s digit limit); else a ConfigError."""
    if grammar.fullmatch(tok):
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(tok)
    raise ConfigError(f"{path}: bad {what} {tok!r}")


def read_matrix_file(path: str, ring):
    """Matrix file: first line is the size d, then d rows of d entries,
    each an ASCII integer or fraction p/q, whitespace separated."""
    lines = [ln.split() for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 1:
        raise ConfigError(f"{path}: first line must be the matrix size")
    d = int(_read_number(path, "size", lines[0][0], _INT))
    if d < 1:
        raise ConfigError(f"{path}: matrix size must be >= 1")
    rows = lines[1:]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ConfigError(f"{path}: expected {d} rows of {d} entries")
    return Matrix(ring, [[_read_number(path, "entry", tok, _ENTRY)
                          for tok in row] for row in rows])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudodet",
        description="Exact verification of multiset-ring and pseudocharacter "
                    "identities on concrete algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    _add_common_flags(check)
    for flag, text in (
            ("--trials", "number of randomized trials (default 50)"),
            ("--seed", "base PRNG seed (default 0)"),
            ("--bound", "matrix entries drawn from [-bound, bound] (default 5)"),
            ("--budget", "formal-product term budget (default 10^7)")):
        check.add_argument(flag, type=_integer, default=None, help=text)
    check.add_argument("--quiet", action="store_true",
                       help="only print the summary lines")

    ev = sub.add_parser("eval", help="evaluate forms on a matrix from a file")
    ev.add_argument("what", choices=("fn", "det", "charpoly"))
    ev.add_argument("--matrix", required=True, help="matrix file path")
    ev.add_argument("--n", type=_integer, default=None,
                    help="argument count for fn (default: the dimension)")
    _add_common_flags(ev)
    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_integer, default=None,
                   help="declared dimension, for check also the matrix "
                        "size (default 2; for eval, the file's size)")
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
    """The configs to run.  Only the options the user set are passed on,
    so every default (ring rational, dim 2, ...) lives in ``SuiteConfig``
    alone.  ``check all`` runs the default matrix, or the one cell whose
    ring or dim is given; with ring words it runs the word suite, which
    has no dim and runs every case once, with no trials, bound or seed
    to draw them."""
    words = options.get("ring") == "words"
    for key in ("dim", "trials", "seed", "bound"):
        if words and key in options:
            raise ConfigError("ring 'words' runs the exhaustive word suite, "
                              f"which takes no --{key}")
    if args.suite != "all":
        suites = (args.suite,)
    elif words:
        suites = ("assoc",)
    elif "ring" in options or "dim" in options:
        suites = SUITE_NAMES
    else:
        return default_all_configs(**options)
    return [SuiteConfig(suite, **options) for suite in suites]


def _run_check(args) -> int:
    options = _merged_options(args, _CONFIG_KEYS)
    configs = _check_configs(args, options)
    # opened before the first suite runs: a path it cannot open costs no run
    with _report_file(args.json_path) as out:
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

        if out:
            document = {
                "command": "check",
                "selection": args.suite,
                "seed": configs[0].seed,
                "pass": all_pass,
                "suites": [r.to_dict() for r in reports],
                "total_duration_seconds": total,
            }
            _write_json(out, document)
    return 0 if all_pass else 1


def _run_eval(args) -> int:
    options = _merged_options(args, ("ring", "dim"))
    ring_spec = options.get("ring", "rational")
    if ring_spec == "words":
        raise ConfigError("eval needs a matrix ring (rational or mod:<m>)")
    ring = ring_from_spec(ring_spec)
    x = read_matrix_file(args.matrix, ring)
    dim = options.get("dim", x.n)
    if dim < 1:
        raise ConfigError("--dim must be >= 1")
    f = matrix_trace(ring, x.n, dim, pseudocharacter=False)
    if args.what == "fn":
        n = args.n if args.n is not None else dim
        if n < 1:
            raise ConfigError("--n must be >= 1")
        _check_arity(n)  # before n arguments are built
        value = recursive_form(f, (x,) * n)
    elif args.what == "det":
        value = determinant(f, x)
    else:
        value = char_poly(f, x)
    try:
        rendered = (value.render() if args.what == "charpoly"
                    else ring.render(value))
    except ValueError:  # an int past the int-to-str digit limit
        raise ConfigError(
            f"{args.what}: the result has a number of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print"
        ) from None
    _say(rendered)
    if args.json_path:
        document = {"command": "eval", "what": args.what,
                    "ring": ring_spec, "dim": dim,
                    "matrix": x.render(), "result": rendered}
        with _report_file(args.json_path) as out:
            _write_json(out, document)
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


@contextlib.contextmanager
def _report_file(path):
    """The file a ``--json`` report is written to (None without a path):
    a temporary file beside ``path``, renamed over ``path`` when the
    block ends, so an interrupted run leaves the old file or none, never
    a truncated one.  An exception in the block removes it."""
    if not path:
        yield None
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(temp, "w", encoding="utf-8")
    except OSError as exc:  # named by the path the user gave
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _write_json(fh, document: dict) -> None:
    """Write ``document`` as compact JSON with sorted keys, each item of
    a top-level list (a ``check`` report's suites) on its own line.  The
    items are encoded one at a time, so the whole encoded report is never
    held in memory."""
    fh.write("{")
    for n, key in enumerate(sorted(document)):
        value = document[key]
        fh.write((", " if n else "") + json.dumps(key) + ": ")
        if isinstance(value, list):
            fh.write("[")
            for i, item in enumerate(value):
                fh.write((",\n" if i else "\n")
                         + json.dumps(item, sort_keys=True))
            fh.write("\n]")
        else:
            fh.write(json.dumps(value, sort_keys=True))
    fh.write("}\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "check":
            return _run_check(args)
        return _run_eval(args)
    except (PseudodetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
