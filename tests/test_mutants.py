"""Pinned mutants that ``check all`` must kill.

Each mutant is one exact text replacement in a copy of the package.  The
copy runs ``check all --seed 42 --trials 2`` in a child process, one
mutant at a time, and some suite must FAIL (exit 1).  A mutant that
changes no value a suite compares (as dropping ``_FormEvaluator.form``'s
sort, which is equivalent for a central f) does not belong here; the
tests of the library catch those.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudodet"

MUTANTS = [
    pytest.param(
        "pseudochar.py",
        "                total += coeff\n",
        "",
        id="on_sum-skips-the-empty-multiset"),
    pytest.param(
        "pseudochar.py",
        "lhs = f.ring.cell(ev.form(xs) * ev.form(ys))",
        "lhs = f.ring.cell(ev.form(xs) * ev.form(xs))",
        id="degree_product-squares-the-left-form"),
    pytest.param(
        "pseudochar.py",
        "math.comb(d, k) * pad * chain[k])",
        "math.comb(d, k) * pad * chain[d - k])",
        id="char_poly-swaps-the-powers"),
    # the padding product of coefficient k is prod_{i=d-k..d-1} (f(1) - i)
    pytest.param(
        "pseudochar.py",
        "pad = pad * (f1 - (d - 1 - k))",
        "pad = pad * (f1 - (d - k))",
        id="char_poly-shifts-the-padding-factor"),
    pytest.param(
        "pseudochar.py",
        "diffs[j] = ring.cell(diffs[j] - diffs[j - 1])",
        "diffs[j] = ring.cell(diffs[j] + diffs[j - 1])",
        id="interpolated-adds-the-forward-difference"),
    pytest.param(
        "pseudochar.py",
        "newton = inv * (math.perm(d, d - k) * diffs[k])",
        "newton = inv * (math.comb(d, k) * diffs[k])",
        id="interpolated-scales-by-comb"),
    # a mod-m scalar is a canonical int only where the result is reduced
    pytest.param(
        "pseudochar.py",
        "return f.ring.cell(inv * recursive_form(f, (x,) * d))",
        "return inv * recursive_form(f, (x,) * d)",
        id="determinant-skips-reduce"),
    pytest.param(
        "pseudochar.py",
        "return self.ring.cell(-self.coefficients[-2])",
        "return -self.coefficients[-2]",
        id="charpoly_trace-skips-reduce"),
    pytest.param(
        "pseudochar.py",
        "coeffs.append(ring.cell(inv * (math.comb(d, k) * pad * chain[k])))",
        "coeffs.append(inv * (math.comb(d, k) * pad * chain[k]))",
        id="char_poly-skips-reduce"),
    pytest.param(
        "verify.py",
        "    return matrix.ring.cell(sums[-1])\n",
        "    return sums[-1]\n",
        id="leibniz_det-skips-reduce"),
    # a step whose used columns above j are odd in number is subtracted
    pytest.param(
        "verify.py",
        "sums[to] = sums[to] - term if odd else sums[to] + term",
        "sums[to] = sums[to] + term",
        id="leibniz_det-adds-the-odd-steps"),
    # every f(a*b) of the recursion is one pair-trace call
    pytest.param(
        "pseudochar.py",
        "return fc[a] * fc[b] - f_pair(self, a, b)",
        "return fc[a] * fc[b] + f_pair(self, a, b)",
        id="form_2-adds-the-pair-term"),
    # a repeated argument's sub-form is subtracted once per copy
    pytest.param(
        "pseudochar.py",
        "                    result -= sub\n                    continue\n",
        "                    continue\n",
        id="peel-skips-the-repeated-sub-form"),
    # Newton's coefficient of f(x^i) in form_n(x, .., x) is
    # (-1)^(i-1) (n-1)!/(n-i)!: each step multiplies by -(n-i)
    pytest.param(
        "pseudochar.py",
        "coeff *= i - n",
        "coeff *= i - n + 1",
        id="newton-shifts-the-coefficient-step"),
    pytest.param(
        "verify.py",
        "            a = row[j] if odd else -row[j]  # the sign times -x_ij\n"
        "            term = [a * c for c in low] + [0]\n"
        "            if j == i:  # and the sign times t\n"
        "                term[1:] = map(sub if odd else add, term[1:], low)\n",
        "            a = -row[j]\n"
        "            term = [a * c for c in low] + [0]\n"
        "            if j == i:\n"
        "                term[1:] = map(add, term[1:], low)\n",
        id="charpoly_leibniz-adds-the-odd-permutations"),
    pytest.param(
        "elements.py",
        'f"x{i}_{k} * y{k}_{i}" for i in idx for k in idx',
        'f"x{i}_{k} * y{i}_{k}" for i in idx for k in idx',
        id="pair_trace-reads-y-untransposed"),
]


@pytest.mark.parametrize("module,old,new", MUTANTS)
def test_check_all_kills_the_mutant(tmp_path, module, old, new):
    package = tmp_path / "pseudodet"
    shutil.copytree(SRC, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{old!r} must occur once in {module}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudodet.cli", "check", "all", "--seed",
         "42", "--trials", "2", "--quiet"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, (proc.stdout[-2000:], proc.stderr[-2000:])
