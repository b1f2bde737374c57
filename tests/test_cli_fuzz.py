"""Property test over CLI argv and the bytes of config and matrix files
(UTF-8 or not): whatever the user types, ``pseudodet`` ends with exit code
0, 1 or 2 and never a traceback.

The program runs in-process through ``cli.main``; an exception escaping
``main`` is what would print a traceback, so the test fails on any
exception except ``SystemExit`` (argparse's usage errors and ``--help``).
Sizes are kept small (trials <= 2, dim <= 3, matrices up to 3x3)
so that one example takes well under a second.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudodet.cli import main
from pseudodet.verify import SUITE_NAMES

_RINGS = ("rational", "words", "mod:2", "mod:3", "mod:5", "mod:7", "mod:101",
          "mod:4", "mod:1", "mod:0", "mod:-3", "mod:", "mod:x", "", "Q")
_JUNK = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=8)


def _int_text(lo, hi):
    """An integer in [lo, hi] five times in six, else junk."""
    return st.one_of(*[st.integers(lo, hi).map(str)] * 5, _JUNK)


#: option -> strategy for its value text, bounded so that runs stay short
_VALUES = {
    "ring": st.one_of(st.sampled_from(_RINGS), st.sampled_from(_RINGS),
                      _JUNK),
    "dim": st.one_of(_int_text(1, 3), _int_text(-1, 3)),
    "size": st.one_of(_int_text(1, 3), _int_text(-1, 3)),
    "trials": st.one_of(_int_text(1, 2), _int_text(-1, 2)),
    "seed": _int_text(-2**70, 2**70),
    "bound": _int_text(-2, 50),
    "budget": st.one_of(_int_text(-1, 100), _int_text(-1, 10**8)),
    "n": _int_text(-1, 4),
}
_CHECK_FLAGS = ("ring", "dim", "seed", "bound", "budget", "quiet", "json")
_EVAL_FLAGS = ("ring", "dim", "n", "json")
_STRAY_FLAGS = ("size", "trials", "n", "quiet", "help", "junk")


def _config_line(draw, keys):
    kind = draw(st.sampled_from(("pair", "pair", "pair", "comment", "blank",
                                 "junk")))
    if kind == "pair":
        key = draw(st.sampled_from(keys + ("volume", "")))
        sep = draw(st.sampled_from((" = ", "=", " =  ")))
        return f"{key}{sep}{draw(_VALUES.get(key, _JUNK))}"
    if kind == "comment":
        return "# " + draw(_JUNK)
    return "" if kind == "blank" else draw(_JUNK)


@st.composite
def matrix_text(draw):
    """A matrix file: a size line, then rows of integer or fraction
    entries; the declared size and the rows need not agree."""
    d = draw(st.integers(0, 3))
    size_line = draw(st.one_of(st.just(str(d)), st.just(str(d)), _JUNK))
    entry = st.one_of(st.integers(-9, 9).map(str),
                      st.tuples(st.integers(-9, 9), st.integers(-3, 3))
                      .map(lambda pq: f"{pq[0]}/{pq[1]}"),
                      _JUNK)
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                         min_size=d, max_size=d + 1))
    return "\n".join([size_line] + [" ".join(r) for r in rows]) + "\n"


def _encoded(draw, text):
    """``text`` as UTF-8 three times in four, else as latin-1 with a "ÿ"
    appended, whose byte 0xff is never UTF-8 (a character latin-1 lacks
    becomes "?")."""
    if draw(st.integers(0, 3)):
        return text.encode("utf-8")
    return (text + "ÿ").encode("latin-1", errors="replace")


@st.composite
def invocation(draw):
    """``(argv, files)``: ``files`` maps the file names that argv uses to
    their bytes.  Most draws are well-formed commands with odd values;
    some carry a flag the command does not take or a junk token.  A
    ``check`` always gets its trials (at most 2) from a flag or from the
    config file, since the default of 50 would make a run slow."""
    files = {}
    command = draw(st.sampled_from(("check", "check", "check", "eval",
                                    "eval", "verify", "")))
    argv = [command] if command else []
    config = []
    if command == "check":
        argv.append(draw(st.sampled_from(SUITE_NAMES + ("all", "all", "x"))))
        flags, keys = _CHECK_FLAGS, tuple(_VALUES)
        trials = draw(_VALUES["trials"])
        if draw(st.booleans()):
            argv += ["--trials", trials]
        else:
            config.append(f"trials = {trials}")
    elif command == "eval":
        argv.append(draw(st.sampled_from(("fn", "det", "charpoly", "trace"))))
        flags, keys = _EVAL_FLAGS, ("ring", "dim")
        files["m.txt"] = _encoded(draw, draw(matrix_text()))
        argv += ["--matrix", draw(st.sampled_from(("m.txt", "m.txt",
                                                   "missing.txt")))]
    else:
        flags, keys = _CHECK_FLAGS, tuple(_VALUES)
    chosen = st.one_of(*[st.sampled_from(flags)] * 4,
                       st.sampled_from(_STRAY_FLAGS))
    for flag in draw(st.lists(chosen, max_size=5)):
        if flag in ("quiet", "help"):
            argv.append(f"--{flag}")
        elif flag == "junk":
            argv.append(draw(_JUNK))
        elif flag == "json":
            # "." is a directory: writing the report there must fail cleanly
            argv += ["--json", draw(st.sampled_from(("out.json", ".")))]
        else:
            argv += [f"--{flag}", draw(_VALUES[flag])]
    config += [_config_line(draw, keys)
               for _ in range(draw(st.integers(0, 4)))]
    draw(st.randoms()).shuffle(config)
    if config:
        files["run.cfg"] = _encoded(draw, "\n".join(config) + "\n")
        argv += ["--config", draw(st.sampled_from(("run.cfg", "run.cfg",
                                                   "missing.cfg")))]
    return argv, files


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=invocation())
def test_exit_code_is_0_1_or_2_and_no_traceback(case, tmp_path,
                                                 monkeypatch):
    argv, files = case
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
