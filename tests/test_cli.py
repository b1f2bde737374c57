"""End-to-end CLI behaviour: exit codes, outputs, JSON reports, config."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pseudodet.cli import load_config_file, main, read_matrix_file
from pseudodet.errors import ConfigError
from pseudodet.rings import ModRing, QQ
from pseudodet.verify import SuiteConfig


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 2\n3 4\n")
    return str(path)


def stripped_json(path):
    """Report body with the duration fields removed, for byte comparison."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if not k.endswith("duration_seconds")}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(doc), sort_keys=True)


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

    @pytest.mark.parametrize("spec", ["mod:1", "foo", "mod:x", ""])
    def test_bad_ring_is_exit_two(self, matrix_file, spec, capsys):
        rc = main(["eval", "det", "--ring", spec, "--matrix", matrix_file])
        assert rc == 2
        assert_one_error_line(capsys.readouterr(), "")

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
        with pytest.raises(SystemExit) as exc:
            main(["eval", "det", "--matrix", matrix_file] + flag)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and flag[0] in errors[0]
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

    @pytest.mark.parametrize("text", ["0\n", "-1\n"])
    def test_size_below_one_is_exit_two(self, text, tmp_path, capsys):
        """A size-0 file used to raise a bare ValueError from ``Matrix``
        and print a traceback."""
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["eval", "det", "--matrix", str(bad)]) == 2
        assert_one_error_line(capsys.readouterr(), "size must be >= 1")

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
        ["check", "assoc", "--size", "0"],
        ["check", "all", "--dim", "0", "--ring", "rational"],
    ])
    def test_zero_dim_or_size_is_exit_two(self, argv, capsys):
        """0 is rejected, not replaced by the default of 2."""
        assert main(argv + ["--trials", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "must be >= 1")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--size", "3", "--dim", "2", "--ring", "mod:7"],
        ["check", "all", "--size", "2"],
        ["check", "all", "--size", "2", "--ring", "words"],
    ])
    def test_check_all_refuses_a_size_it_would_not_use(self, argv, capsys):
        """check all runs each matrix cell at size = dim and words at no
        size, so any other --size is an error, not silently ignored."""
        assert main(argv + ["--trials", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "--size")
        assert captured.out == ""

    def test_check_all_accepts_size_equal_to_dim(self, capsys):
        assert main(["check", "all", "--size", "1", "--dim", "1", "--ring",
                     "mod:7", "--trials", "1", "--quiet"]) == 0
        assert "8 suite(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--dim", "9", "--ring", "rational"],
        ["check", "det-mult", "--dim", "9", "--size", "2"],
        ["check", "pseudochar-axioms", "--dim", "8", "--size", "1"],
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
        with pytest.raises(SystemExit) as exc:
            main(["check", "not-a-suite"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

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

    def test_seed_reproducibility_end_to_end(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["check", "det-mult", "--trials", "6", "--seed", "31",
                "--quiet"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert stripped_json(a) == stripped_json(b)

    def test_check_all_restricted_cell(self, capsys):
        rc = main(["check", "all", "--dim", "1", "--ring", "rational",
                   "--trials", "3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 suite(s)" in out

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--ring", "words", "--dim", "5"],
        ["check", "assoc", "--ring", "words", "--dim", "5", "--size", "3"],
        ["check", "assoc", "--ring", "words", "--size", "3"],
    ])
    def test_words_ring_takes_no_dim_or_size(self, argv, capsys):
        """The exhaustive word suite has neither, so a given one is an
        error, not a value the report misstates."""
        assert main(argv + ["--trials", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured, "words")
        assert captured.out == ""

    def test_check_all_words_only(self, capsys):
        rc = main(["check", "all", "--ring", "words", "--trials", "1",
                   "--quiet"])
        assert rc == 0
        assert "1 suite(s)" in capsys.readouterr().out


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
        out = tmp_path / "missing" / "report.json"
        assert main(["check", "assoc", "--trials", "1", "--json",
                     str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), "No such file")


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
