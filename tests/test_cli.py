"""End-to-end CLI behaviour: exit codes, outputs, JSON reports, config."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pseudodet import cli
from pseudodet.cli import (_CONFIG_KEYS, build_parser, load_config_file, main,
                           read_matrix_file)
from pseudodet.errors import ConfigError
from pseudodet.rings import ModRing, QQ
from pseudodet.verify import SuiteConfig


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 2\n3 4\n")
    return str(path)


def stripped_json(path):
    """Report body with the duration fields removed, for byte comparison:
    compact and key-sorted, as acceptance criterion 10 serializes it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if not k.endswith("duration_seconds")}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(doc), sort_keys=True, separators=(",", ":"))


def assert_one_error_line(captured, needle):
    """stderr is a single ``error:`` line mentioning ``needle``."""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ") and needle in lines[0]


class TestEval:
    def test_det_example(self, matrix_file, capsys):
        assert main(["eval", "det", "--matrix", matrix_file, "--dim", "2"]) == 0
        assert capsys.readouterr().out.strip() == "-2"

    def test_charpoly(self, matrix_file, capsys):
        assert main(["eval", "charpoly", "--matrix", matrix_file]) == 0
        assert capsys.readouterr().out.strip() == "(1)*t^2 + (-5)*t + (-2)"

    @pytest.mark.parametrize("entries,dim,want", [
        ("1 2\n3 4", "1", "(2)*t + (-5)"),
        ("1 2\n3 4", "3", "(0)*t^3 + (0)*t^2 + (0)*t + (0)"),
        ("1/2 -3\n2/3 5", "1", "(2)*t + (-11/2)"),
        ("1/2 -3\n2/3 5", "3", "(0)*t^3 + (0)*t^2 + (0)*t + (0)"),
    ], ids=["int-dim1", "int-dim3", "fraction-dim1", "fraction-dim3"])
    def test_charpoly_with_another_dim(self, tmp_path, capsys, entries, dim,
                                       want):
        """With --dim D the unit's trace f(1) = 2 is not D: the padding
        uses f(1), so --dim 1 is 2t - tr(x), not monic, and --dim 3 is
        zero, as form_3 and the factor f(1) - 2 vanish on 2 x 2."""
        path = tmp_path / "m.txt"
        path.write_text(f"2\n{entries}\n")
        assert main(["eval", "charpoly", "--matrix", str(path),
                     "--dim", dim]) == 0
        assert capsys.readouterr().out.strip() == want

    def test_fn_defaults_to_dim(self, matrix_file, capsys):
        assert main(["eval", "fn", "--matrix", matrix_file]) == 0
        # form_2(x, x) = f(x)^2 - f(x^2) = 25 - 29
        assert capsys.readouterr().out.strip() == "-4"

    def test_fn_explicit_n(self, matrix_file, capsys):
        assert main(["eval", "fn", "--matrix", matrix_file, "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_mod_ring(self, matrix_file, capsys):
        assert main(["eval", "det", "--matrix", matrix_file,
                     "--ring", "mod:7"]) == 0
        assert capsys.readouterr().out.strip() == "5 mod 7"

    def test_fraction_entries(self, tmp_path, capsys):
        path = tmp_path / "frac.txt"
        path.write_text("2\n1/2 0\n0 2/3\n")
        assert main(["eval", "det", "--matrix", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1/3"

    def test_missing_file(self, capsys):
        assert main(["eval", "det", "--matrix", "/nonexistent"]) == 2
        assert "error" in capsys.readouterr().err

    def test_words_ring_rejected(self, matrix_file, capsys):
        assert main(["eval", "det", "--matrix", matrix_file,
                     "--ring", "words"]) == 2

    def test_json_result_document(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["eval", "det", "--matrix", matrix_file,
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc == {"command": "eval", "what": "det", "ring": "rational",
                       "dim": 2, "matrix": "[[1,2],[3,4]]", "result": "-2"}

    def test_zero_dim_is_exit_two(self, matrix_file, capsys):
        rc = main(["eval", "det", "--matrix", matrix_file, "--dim", "0"])
        assert rc == 2
        assert_one_error_line(capsys.readouterr(), "dim")

    def test_zero_n_is_exit_two(self, matrix_file, capsys):
        rc = main(["eval", "fn", "--matrix", matrix_file, "--n", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "--n must be >= 1")
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["mod:1", "foo", "mod:x", ""])
    def test_bad_ring_is_exit_two(self, matrix_file, spec, capsys):
        rc = main(["eval", "det", "--ring", spec, "--matrix", matrix_file])
        assert rc == 2
        assert_one_error_line(capsys.readouterr(), "")

    @pytest.mark.parametrize("what", ["fn", "det", "charpoly"])
    @pytest.mark.parametrize("rows", [
        ["9" * 3000 + " 0", "0 " + "9" * 3000],
        [" ".join("9" * 600 if i == j else "1" for j in range(8))
         for i in range(8)]], ids=["2x2-3000-nines", "8x8-600-digit-diagonal"])
    def test_result_past_the_digit_limit_is_exit_two(self, what, rows,
                                                     tmp_path, capsys):
        """Each entry is under int()'s digit limit, so the file is read;
        the result is not, so it cannot be printed: exit 2, one line that
        names the limit, no result and no JSON."""
        path, out = tmp_path / "big.txt", tmp_path / "eval.json"
        path.write_text("\n".join([str(len(rows))] + rows) + "\n")
        rc = main(["eval", what, "--matrix", str(path), "--json", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured,
                              f"more than {sys.get_int_max_str_digits()} "
                              "digits")
        assert captured.out == ""
        assert not out.exists()

    def test_charpoly_over_the_cap_is_exit_two(self, matrix_file, capsys):
        """charpoly takes forms of dim arguments, like det: over the
        recursion cap of 8 it prints no polynomial."""
        rc = main(["eval", "charpoly", "--matrix", matrix_file, "--dim", "9"])
        assert rc == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "recursion cap of 8")
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--size", "5"], ["--trials", "3"],
                                      ["--seed", "9"], ["--bound", "1"],
                                      ["--budget", "1"], ["--quiet"]])
    def test_flags_eval_does_not_read_are_refused(self, matrix_file, flag,
                                                  capsys):
        assert main(["eval", "det", "--matrix", matrix_file] + flag) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "unrecognized arguments: " + flag[0])
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--n", "--dim"])
    def test_fn_over_the_cap_builds_no_arguments(self, matrix_file, flag,
                                                 monkeypatch, capsys):
        """``eval fn`` checks the recursion cap before it builds its n
        arguments (n is --n, or --dim without it).  It used to build the
        tuple first, about 15 bytes an argument, and then exit 2."""
        def no_form(f, args):
            raise AssertionError("the arguments were built")
        monkeypatch.setattr(cli, "recursive_form", no_form)
        rc = main(["eval", "fn", "--matrix", matrix_file, flag, "1000000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert_one_error_line(
            captured, "1000000 arguments exceed the recursion cap of 8")
        assert captured.out == ""

    def test_config_key_eval_does_not_read_is_exit_two(self, matrix_file,
                                                       tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("dim = 2\ntrials = 3\n")
        rc = main(["eval", "det", "--matrix", matrix_file, "--config",
                   str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "'trials'")
        assert captured.out == ""

    def test_det_not_invertible(self, tmp_path, capsys):
        path = tmp_path / "m3.txt"
        path.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
        assert main(["eval", "det", "--matrix", str(path),
                     "--ring", "mod:6"]) == 2
        assert "not invertible" in capsys.readouterr().err


class TestMatrixFile:
    def test_read(self, matrix_file):
        m = read_matrix_file(matrix_file, QQ)
        assert m.rows == ((1, 2), (3, 4))

    def test_mod_reading(self, matrix_file):
        m = read_matrix_file(matrix_file, ModRing(3))
        assert m.rows == ((1, 2), (0, 1))

    def test_shape_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 2 3\n4 5 6\n")
        with pytest.raises(ConfigError):
            read_matrix_file(str(bad), QQ)
        bad.write_text("x\n")
        with pytest.raises(ConfigError):
            read_matrix_file(str(bad), QQ)

    @pytest.mark.parametrize("tok", [
        "1e5000", "1.5", "1_0", "\u0663", "1/0",
        pytest.param("1" * 5000, id="5000-digits")])
    def test_entry_outside_the_grammar_is_exit_two(self, tok, tmp_path,
                                                   capsys):
        """An entry is an integer or a fraction p/q in ASCII digits.
        ``Fraction`` also took decimals, exponents, underscores and other
        scripts' digits: ``1e5000`` printed a ValueError traceback and
        ``1.5`` was read as 3/2.  An integer past ``int()``'s 4,300-digit
        limit, or a zero denominator, is a bad entry too."""
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1\n{tok}\n", encoding="utf-8")
        assert main(["eval", "det", "--matrix", str(bad)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, f"bad entry {tok!r}")
        assert captured.out == ""

    def test_signed_integers_and_fractions_parse(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1/2 -3\n+4 0\n")
        assert read_matrix_file(str(path), QQ).rows == (
            (Fraction(1, 2), -3), (4, 0))

    @pytest.mark.parametrize("text", ["0\n", "-1\n"])
    def test_size_below_one_is_exit_two(self, text, tmp_path, capsys):
        """A size-0 file used to raise a bare ValueError from ``Matrix``
        and print a traceback."""
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["eval", "det", "--matrix", str(bad)]) == 2
        assert_one_error_line(capsys.readouterr(), "size must be >= 1")

    @pytest.mark.parametrize("size", [
        "1_0", "\u0663", "2.0", "4/2",
        pytest.param("1" * 5000, id="5000-digits")])
    def test_size_outside_the_grammar_is_exit_two(self, size, tmp_path,
                                                  capsys):
        """The size line follows the entries' ASCII grammar, without p/q:
        ``int()`` read ``1_0`` as 10 and ``\u0663`` as 3, and a size past
        its 4,300-digit limit is refused rather than a traceback."""
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{size}\n1\n", encoding="utf-8")
        assert main(["eval", "det", "--matrix", str(bad)]) == 2
        assert_one_error_line(capsys.readouterr(), f"bad size {size!r}")

    def test_two_numbers_on_the_size_line_is_exit_two(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 2\n3 4\n")
        assert main(["eval", "det", "--matrix", str(bad)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "first line must be the matrix size")
        assert captured.out == ""

    def test_non_utf8_file_is_exit_two(self, tmp_path, capsys):
        """A byte that is not UTF-8 used to escape as a UnicodeDecodeError
        traceback with exit code 1."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2\n1 2\n3 \xff\n")
        assert main(["eval", "det", "--matrix", str(bad)]) == 2
        assert_one_error_line(capsys.readouterr(), f"{bad}: not UTF-8 text")


class TestCheck:
    def test_suite_pass_exit_zero(self, capsys):
        rc = main(["check", "degree-d", "--dim", "2", "--ring", "mod:7",
                   "--trials", "5", "--quiet"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_not_invertible_config_is_exit_two(self, capsys):
        rc = main(["check", "degree-d", "--dim", "3", "--ring", "mod:6"])
        assert rc == 2
        assert "not invertible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "degree-d", "--dim", "0"],
        ["check", "assoc", "--dim", "0"],
        ["check", "all", "--dim", "0", "--ring", "rational"],
    ])
    def test_zero_dim_or_size_is_exit_two(self, argv, capsys):
        """0 is rejected, not replaced by the default of 2 (dim is also
        the matrix size)."""
        assert main(argv + ["--trials", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "must be >= 1")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--size", "3", "--dim", "2", "--ring", "mod:7"],
        ["check", "all", "--size", "2"],
        ["check", "all", "--size", "2", "--ring", "words"],
        ["check", "det-mult", "--size", "2"],
    ])
    def test_size_is_not_a_check_flag(self, argv, capsys):
        """Every matrix suite runs at size = dim, so --size is a usage
        error, even where it would equal dim."""
        assert main(argv + ["--trials", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "unrecognized arguments: --size")
        assert captured.out == ""

    def test_size_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 2\nsize = 2\n")
        assert main(["check", "det-mult", "--trials", "1", "--quiet",
                     "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "unknown key 'size'")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--dim", "9", "--ring", "rational"],
        ["check", "det-mult", "--dim", "9"],
        ["check", "pseudochar-axioms", "--dim", "8"],
        ["check", "assoc", "--dim", "33"],
        ["check", "functoriality", "--dim", "33"],
        ["check", "product-formula", "--dim", "33"],
        ["check", "taylor-equiv", "--dim", "33"],
    ])
    def test_cap_errors_stop_before_any_suite(self, argv, tmp_path, capsys):
        """Every config is validated, caps included, before a suite runs:
        no PASS line is printed and no half-run report is written."""
        out = tmp_path / "report.json"
        assert main(argv + ["--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "cap")
        assert captured.out == ""
        assert not out.exists()

    def test_defaults_come_from_suite_config(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "det-mult", "--quiet", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 0
        assert doc["suites"][0]["config"] == \
            SuiteConfig("det-mult", dim=2).echo()

    def test_usage_error_is_exit_two(self, capsys):
        assert main(["check", "not-a-suite"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(
            captured, "argument suite: invalid choice: 'not-a-suite'")
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        ([], "error: the following arguments are required: command"),
        (["eval", "det"],
         "error: the following arguments are required: --matrix"),
        (["check", "det-mult", "--trials"],
         "error: argument --trials: expected one argument"),
    ], ids=["no-command", "eval-without-matrix", "flag-without-value"])
    def test_usage_errors_are_one_line(self, argv, message, capsys):
        """argparse's refusals print argparse's message as the one
        ``error:`` line, with no usage block, and exit 2 from ``main``."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_is_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pseudodet")

    def test_json_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["check", "taylor-equiv", "--trials", "4", "--seed", "9",
                   "--quiet", "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"command", "selection", "seed", "pass", "suites",
                            "total_duration_seconds"}
        assert doc["command"] == "check" and doc["selection"] == "taylor-equiv"
        assert doc["seed"] == 9 and doc["pass"] is True
        suite = doc["suites"][0]
        assert set(suite) == {"suite", "config", "checks", "counts", "pass",
                              "reproductions", "duration_seconds"}

    def test_json_one_suite_per_line(self, tmp_path, capsys, monkeypatch):
        """The report is compact JSON, keys sorted, each suite on its own
        line, and parses to the document the indented encoder wrote."""
        written = []
        write = cli._write_json

        def spy(fh, document):
            written.append(document)
            write(fh, document)

        monkeypatch.setattr(cli, "_write_json", spy)
        out = tmp_path / "report.json"
        assert main(["check", "all", "--ring", "mod:7", "--dim", "1",
                     "--trials", "2", "--quiet", "--json", str(out)]) == 0
        (document,) = written
        text = out.read_text()
        doc = json.loads(text)
        assert doc == json.loads(json.dumps(document, indent=2,
                                            sort_keys=True))
        assert list(doc) == sorted(doc)
        lines = text.split("\n")
        assert lines[0].endswith('"suites": [')
        assert lines[-2].startswith("], ") and lines[-1] == ""
        suites = lines[1:-2]
        assert len(suites) == len(doc["suites"]) == 8
        for i, (line, suite) in enumerate(zip(suites, doc["suites"])):
            comma = "," if i < len(suites) - 1 else ""
            assert line == json.dumps(suite, sort_keys=True) + comma

    def test_seed_reproducibility_end_to_end(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["check", "det-mult", "--trials", "6", "--seed", "31",
                "--quiet"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert stripped_json(a) == stripped_json(b)

    @pytest.mark.parametrize("ring,dim,trials,digest", [
        ("mod:25", 4, 5, "6fa8f21bbe4b2612db49f898e2e83ebe"
                         "8b80d71595f7bf7bc530f2def024dbbc"),
        ("mod:35", 4, 5, "cf1f10881bec299561b428ec53b63fae"
                         "cfda5a1e401e8a65db1b9415deb4c657"),
        ("mod:9", 2, 10, "e9eb61778a4b1adf623e4f4a0aeedf2f"
                         "80b58c5a21ba6498659004262fa6e4d3"),
        ("mod:5", 3, 10, "638e9c5e7466f27245513fc7765b32dc"
                         "26684ffaf20561b3192b23cbd04f2a1f"),
    ])
    def test_mod_cell_report_digest(self, ring, dim, trials, digest,
                                    tmp_path, capsys):
        """Pinned reports of `check all` on composite moduli and on cells
        where d! is invertible but (2d)! is not, which the seed-42 digest
        does not reach."""
        out = tmp_path / "report.json"
        assert main(["check", "all", "--ring", ring, "--dim", str(dim),
                     "--trials", str(trials), "--quiet", "--json",
                     str(out)]) == 0
        got = hashlib.sha256(stripped_json(out).encode()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("suite,ring,digest", [
        ("det-mult", "mod:11", "ccae2c7a254f9104e55dd6d3fe84c6b9"
                               "2bcde1dc816a1130b586a209de6f551c"),
        ("charpoly", "mod:13", "d897f1da5f74d2efc009401b08575eac"
                               "5d67b6e4e13d6df7d51728b61e962d89"),
    ])
    def test_dim_seven_report_digest(self, suite, ring, digest, tmp_path,
                                     capsys):
        """Pinned reports at d = 7 over the primes 7 < p <= 14, where 7! is
        invertible and 14! is not: the cells that separate d! from (2d)!."""
        out = tmp_path / "report.json"
        assert main(["check", suite, "--ring", ring, "--dim", "7",
                     "--trials", "5", "--quiet", "--json", str(out)]) == 0
        got = hashlib.sha256(stripped_json(out).encode()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("suite,dim,cap", [
        ("det-mult", 8, "permutation cap of 7"),
        ("degree-d", 7, "cap of 6 for degree-d"),
        ("all", 7, "cap of 6 for degree-d"),
    ])
    def test_permutation_caps_are_exit_two(self, suite, dim, cap, capsys):
        """Each cap is named in one line before any suite prints."""
        assert main(["check", suite, "--dim", str(dim)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, cap)
        assert captured.out == ""

    def test_largest_bound_runs(self, capsys):
        assert main(["check", "det-mult", "--bound", str(2**63 - 1),
                     "--trials", "2", "--quiet"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", [2**63, 10**3000 - 1],
                             ids=["2**63", "3000-nines"])
    def test_bound_past_one_draw_is_exit_two(self, bound, tmp_path, capsys):
        """One 64-bit draw covers [-bound, bound] only up to 2**63 - 1; a
        larger bound, from the flag or the config file, is refused in one
        line, not drawn from a shifted range or printed past str's digit
        limit."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bound = {bound}\n")
        for source in (["--bound", str(bound)], ["--config", str(cfg)]):
            assert main(["check", "det-mult", "--trials", "1", "--quiet",
                         *source]) == 2
            captured = capsys.readouterr()
            assert_one_error_line(captured, "bound must be <= 2**63 - 1")
            assert captured.out == ""

    def test_check_all_restricted_cell(self, capsys):
        rc = main(["check", "all", "--dim", "1", "--ring", "rational",
                   "--trials", "3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 suite(s)" in out

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--ring", "words", "--dim", "5"],
        ["check", "assoc", "--ring", "words", "--dim", "5"],
        ["check", "all", "--ring", "words", "--dim", "2"],
    ])
    def test_words_ring_takes_no_dim_or_size(self, argv, capsys):
        """The exhaustive word suite has no dim (so no matrix size), so a
        given one is an error, not a value the report misstates, even the
        default of 2."""
        assert main(argv + ["--trials", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "words")
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--trials", "--bound", "--seed"])
    def test_words_ring_takes_no_draw_flag(self, flag, capsys):
        """The word suite runs every case once and draws nothing, so a
        trial count, bound or seed it would ignore is an error, not a
        value its report echoes."""
        assert main(["check", "assoc", "--ring", "words", flag, "3"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, flag)
        assert "words" in captured.err and captured.out == ""

    @pytest.mark.parametrize("key", ["trials", "bound", "seed"])
    def test_words_ring_takes_no_draw_key(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ring = words\n{key} = 3\n")
        assert main(["check", "all", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "words")
        assert key in captured.err and captured.out == ""

    def test_check_all_words_only(self, capsys):
        rc = main(["check", "all", "--ring", "words", "--quiet"])
        assert rc == 0
        assert "1 suite(s)" in capsys.readouterr().out


def test_python_dash_m_runs_the_command(tmp_path):
    """``python -m pseudodet`` is the ``pseudodet`` command."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pseudodet", "check", "det-mult", "--trials",
         "1", "--quiet"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("suite det-mult"), proc.stdout


class TestClosedStdout:
    """A reader that quits early (``check all ... | head -1``) must not
    cost the report: the run goes on, writes its JSON and exits with the
    suites' verdict."""

    ARGV = ["check", "all", "--seed", "42", "--trials", "2", "--quiet"]

    def test_head_one_keeps_the_json(self, tmp_path, capsys):
        unpiped = tmp_path / "unpiped.json"
        verdict = main(self.ARGV + ["--json", str(unpiped)])
        capsys.readouterr()
        piped = tmp_path / "piped.json"
        src = Path(__file__).resolve().parent.parent / "src"
        # unbuffered, so each line reaches the pipe when it is printed
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        with subprocess.Popen(
                [sys.executable, "-m", "pseudodet.cli", *self.ARGV,
                 "--json", str(piped)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert proc.stdout.readline().startswith(b"suite assoc")
            proc.stdout.close()  # the reader quits; 72 suites still to run
            rc = proc.wait(timeout=120)
            err = proc.stderr.read().decode()
        assert rc == verdict == 0
        assert "error:" not in err and "Traceback" not in err, err
        assert stripped_json(piped) == stripped_json(unpiped)

    def test_json_into_a_missing_directory_is_exit_two(self, tmp_path,
                                                         capsys):
        """The report file is opened before the first suite runs, so a
        path that cannot be opened costs no suite."""
        out = tmp_path / "missing" / "report.json"
        assert main(["check", "assoc", "--trials", "1", "--json",
                     str(out)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "No such file")
        assert captured.out == ""


class TestBudgetErrorKeepsTheReport:
    """A product over ``--budget`` fails its own suite, with the exception
    text as ``"error"``; every other suite still runs and reports."""

    def test_single_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "assoc", "--budget", "30",
                     "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "ERROR: formal product predicts more than 30" in captured.out
        doc = json.loads(out.read_text())
        assert doc["pass"] is False
        (suite,) = doc["suites"]
        assert suite["suite"] == "assoc" and suite["pass"] is False
        assert suite["checks"] == [] and suite["reproductions"] == []
        assert suite["error"] == ("formal product predicts more than 30 "
                                  "intermediate multisets")

    def test_check_all_runs_every_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "all", "--budget", "30", "--trials", "2",
                     "--quiet", "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "FAIL: 73 suite(s)" in captured.out
        doc = json.loads(out.read_text())
        suites = doc["suites"]
        assert len(suites) == 73 and doc["pass"] is False
        failed = [s for s in suites if "error" in s]
        assert failed and all(s["suite"] == "assoc" and not s["pass"]
                              for s in failed)
        # the suites without an error carry no "error" key and still pass
        assert all(s["pass"] for s in suites if "error" not in s)
        assert sum(1 for s in suites if "error" not in s) > 60


#: integers that ``int()`` reads (as 10 and 2) but the ASCII grammar of
#: the matrix size refuses
_NOT_ASCII_INTS = pytest.mark.parametrize("text", ["1_0", "\u0662"],
                                          ids=["underscore", "arabic-indic"])


class TestIntegerGrammar:
    """Every integer the user types follows the matrix size's grammar,
    ``[+-]?[0-9]+`` in ASCII: ``check det-mult --trials 1_0 --dim \u0662``
    ran 10 trials at dim 2, and a config line ``seed = \u0663`` ran
    seed 3."""

    @staticmethod
    def argv(command, matrix_file):
        return (["check", "det-mult"] if command == "check"
                else ["eval", "fn", "--matrix", matrix_file])

    @_NOT_ASCII_INTS
    @pytest.mark.parametrize("command,flag", [
        ("check", flag) for flag in ("--dim", "--trials", "--seed",
                                     "--bound", "--budget")] + [
        ("eval", "--dim"), ("eval", "--n")])
    def test_flag_is_exit_two(self, command, flag, text, matrix_file,
                              tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(self.argv(command, matrix_file)
                    + [flag, text, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: argument {flag}: not an ASCII "
                                f"integer: {text!r}\n")
        assert captured.out == "" and not out.exists()

    @_NOT_ASCII_INTS
    @pytest.mark.parametrize("command,key", [
        ("check", key) for key in ("dim", "trials", "seed", "bound",
                                   "budget")] + [("eval", "dim")])
    def test_config_key_is_exit_two(self, command, key, text, matrix_file,
                                    tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "report.json"
        cfg.write_text(f"# run\n{key} = {text}\n", encoding="utf-8")
        rc = main(self.argv(command, matrix_file)
                  + ["--config", str(cfg), "--json", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured,
                              f"{cfg}:2: bad value {text!r} for {key}")
        assert captured.out == "" and not out.exists()

    def test_signs_are_accepted(self, tmp_path):
        args = build_parser().parse_args(
            ["check", "det-mult", "--seed", "-1", "--trials", "+3"])
        assert (args.seed, args.trials) == (-1, 3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\ntrials = +3\n")
        assert load_config_file(str(cfg)) == {"seed": -1, "trials": 3}


class TestConfigFile:
    def test_values_used_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# suite parameters\n"
            "ring = mod:7\n"
            "dim = 2\n"
            "trials = 4\n"
            "seed = 11\n")
        out1 = tmp_path / "r1.json"
        rc = main(["check", "degree-d", "--config", str(cfg), "--quiet",
                   "--json", str(out1)])
        assert rc == 0
        doc = json.loads(out1.read_text())
        assert doc["suites"][0]["config"]["ring"] == "mod:7"
        assert doc["suites"][0]["config"]["trials"] == 4

        out2 = tmp_path / "r2.json"
        rc = main(["check", "degree-d", "--config", str(cfg),
                   "--trials", "7", "--quiet", "--json", str(out2)])
        assert rc == 0
        doc = json.loads(out2.read_text())
        assert doc["suites"][0]["config"]["trials"] == 7
        assert doc["suites"][0]["config"]["ring"] == "mod:7"

    def test_bad_config_lines(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials four\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))
        cfg.write_text("volume = 11\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))
        cfg.write_text("trials = four\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    def test_lines_end_at_newlines_only(self, tmp_path):
        # a form feed is inside a line, so "2\fseed = 3" is one bad value
        cfg = tmp_path / "ff.cfg"
        cfg.write_text("trials = 2\fseed = 3\r\nbound = 4\n")
        with pytest.raises(ConfigError, match=r":1: bad value '2\\x0cseed"):
            load_config_file(str(cfg))
        cfg.write_text("trials = 2\r\nbound = 4\rseed = 3\n")
        assert load_config_file(str(cfg)) == {"trials": 2, "bound": 4,
                                              "seed": 3}

    def test_non_utf8_config_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("trials = 2  # café\n".encode("latin-1"))
        assert main(["check", "degree-d", "--config", str(cfg)]) == 2
        assert_one_error_line(capsys.readouterr(), f"{cfg}: not UTF-8 text")

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        assert main(["check", "assoc", "--config", str(cfg)]) == 2

    def test_flags_keys_and_fields_are_one_list(self):
        """Each settable check value is a flag, a config-file key and a
        ``SuiteConfig`` field, so none can be added in one place only."""
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        flags = {opt[2:] for action in subparsers.choices["check"]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        flags -= {"help", "config", "json", "quiet"}
        fields = set(SuiteConfig._fields) - {"suite"}
        assert flags == set(_CONFIG_KEYS) == fields
