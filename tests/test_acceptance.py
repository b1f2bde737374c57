"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact (integer, rational, or modular equality); there
are no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines for passing tests too).
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import chain, combinations, permutations
from pathlib import Path

from pseudodet import (FormalSum, LetterHom, Matrix, ModRing, Multiset, QQ,
                       Word, char_poly, cycle_sum_form, degree_product_check,
                       determinant, formal_product,
                       identity_padding_check, matrix_trace,
                       multiset_product, multiplicativity_check,
                       partial_bijection_count, partial_bijections,
                       product_formula_check, recursive_form)
from pseudodet.verify import (char_poly_leibniz, leibniz_det, random_matrix,
                              random_word, substream)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def _mats(seed, trial, count, ring=QQ, size=2, bound=5):
    rng = substream(seed, trial)
    return tuple(random_matrix(rng, ring, size, bound) for _ in range(count))


def _letters(prefix, n):
    return Multiset(Word([f"{prefix}{i}"]) for i in range(1, n + 1))


def _reversed_word(w):
    """Reverse the letters: an anti-automorphism of the free semigroup."""
    return Word(reversed(w.letters))


def _transpose(a):
    """Entrywise transpose: an anti-automorphism of the matrix ring."""
    return Matrix(a.ring, zip(*a.rows))


def _map_entries(fn, ms):
    return Multiset(fn(e) for e in ms.entries)


def test_criterion_01_footnote_formulas():
    """form_2 and form_3 match their hand-coded expansions exactly."""
    start = time.perf_counter()
    failures = []
    for size, seed in ((2, 1001), (3, 1002)):
        f = matrix_trace(QQ, size, pseudocharacter=False)
        for trial in range(100):
            x1, x2, x3 = _mats(seed, trial, 3, size=size)
            by_hand2 = f(x1) * f(x2) - f(x1 * x2)
            if recursive_form(f, (x1, x2)) != by_hand2:
                failures.append((size, trial, 2))
            by_hand3 = (f(x1) * f(x2) * f(x3)
                        - f(x1 * x2) * f(x3)
                        - f(x1 * x3) * f(x2)
                        - f(x2 * x3) * f(x1)
                        + f(x1 * x2 * x3)
                        + f(x1 * x3 * x2))
            if recursive_form(f, (x1, x2, x3)) != by_hand3:
                failures.append((size, trial, 3))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _line(1, "footnote-formulas", ok,
          f"200 tuples x two degrees, {elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_02_multiset_ring_structure():
    """Unit law, order reversal, associativity, partial-bijection counts.

    The product is commutative only when the entries commute.  In general
    an anti-automorphism of the semigroup, applied to every entry, turns
    x X y into y X x: letter reversal on free letters, transpose on
    matrices.  The negative controls show that, without the swap, x X y
    and y X x do differ.
    """
    start = time.perf_counter()

    word_multisets = [(n, m, k) for n in range(4) for m in range(4)
                      for k in range(4)]
    assert (2, 2, 2) in word_multisets

    unit_failures = []
    assoc_failures = []
    reversal_failures = []
    merge_failures = []
    transpose_failures = []
    control_failures = []
    empty = Multiset(())

    for n, m, k in word_multisets:
        x, y, z = _letters("x", n), _letters("y", m), _letters("z", k)
        if multiset_product(x, empty) != FormalSum.of(x) or \
                multiset_product(empty, x) != FormalSum.of(x):
            unit_failures.append(("words", n))
        lhs = formal_product(multiset_product(x, y), FormalSum.of(z))
        rhs = formal_product(FormalSum.of(x), multiset_product(y, z))
        if lhs != rhs:
            assoc_failures.append(("words", n, m, k))

    # x X y pairs entries as x_i*y_j but y X x pairs them as y_j*x_i, so
    # over free letters the two differ exactly when both are nonempty
    # (already {x1} X {y1} = {x1*y1} + {x1,y1} vs {y1*x1} + {x1,y1});
    # the merge-order leg catches the opposite product y_j*x_i, which
    # satisfies the reversal and transpose laws just as well
    letter_controls = 0
    for n, m in ((n, m) for n in range(4) for m in range(4)):
        x, y = _letters("x", n), _letters("y", m)
        xy, yx = multiset_product(x, y), multiset_product(y, x)
        if xy.map_elements(_reversed_word) != yx:
            reversal_failures.append(("words", n, m))
        if any(len(w) > 1 and (w.letters[0][0], w.letters[1][0]) != ("x", "y")
               for ms in xy.multisets() for w in ms.entries):
            merge_failures.append(("words", n, m))
        differs = xy != yx
        letter_controls += differs
        if differs != (n >= 1 and m >= 1):
            control_failures.append(("words", n, m))

    matrix_controls = 0
    for trial in range(100):
        rng = substream(1003, trial)
        cards = [rng.randint(0, 3) for _ in range(3)]
        x, y, z = (Multiset(random_matrix(rng, QQ, 2, 5)
                            for _ in range(c)) for c in cards)
        if multiset_product(x, empty) != FormalSum.of(x):
            unit_failures.append(("matrix", trial))
        lhs = formal_product(multiset_product(x, y), FormalSum.of(z))
        rhs = formal_product(FormalSum.of(x), multiset_product(y, z))
        if lhs != rhs:
            assoc_failures.append(("matrix", trial))
        xy_t = multiset_product(x, y).map_elements(_transpose)
        xt, yt = _map_entries(_transpose, x), _map_entries(_transpose, y)
        if xy_t != multiset_product(yt, xt):
            transpose_failures.append(("matrix", trial))
        matrix_controls += xy_t != multiset_product(xt, yt)
    if not matrix_controls:
        control_failures.append(("matrix", "no trial differs unswapped"))

    count_failures = []
    for (n, m), expected in (((2, 1), 3), ((2, 2), 7), ((3, 3), 34)):
        if len(partial_bijections(n, m)) != expected:
            count_failures.append((n, m, "enumerated"))
        if partial_bijection_count(n, m) != expected:
            count_failures.append((n, m, "formula"))

    # independent derivation of the (3,3) count by brute force
    def subsets(u):
        return chain.from_iterable(combinations(u, k)
                                   for k in range(len(u) + 1))
    brute = sum(1 for dom in subsets(range(3)) for img in subsets(range(3))
                if len(dom) == len(img)
                for _ in permutations(img))
    if brute != 34:
        count_failures.append((3, 3, "bruteforce"))

    elapsed = time.perf_counter() - start
    failures = (unit_failures + assoc_failures + reversal_failures
                + merge_failures + transpose_failures + control_failures
                + count_failures)
    ok = not failures and elapsed < 30.0
    _line(2, "multiset-ring-structure", ok,
          f"unit={'ok' if not unit_failures else 'FAIL'}, "
          f"assoc={'ok' if not assoc_failures else 'FAIL'}, "
          f"counts={'ok' if not count_failures else 'FAIL'}, "
          f"reversal={'ok' if not reversal_failures else 'FAIL'}, "
          f"merge-order={'ok' if not merge_failures else 'FAIL'}, "
          f"transpose={'ok' if not transpose_failures else 'FAIL'}, "
          f"unswapped controls differ on {letter_controls}/16 letter and "
          f"{matrix_controls}/100 matrix cases, {elapsed:.2f}s")
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    assert not unit_failures, unit_failures[:3]
    assert not assoc_failures, assoc_failures[:3]
    assert not count_failures, count_failures
    assert not reversal_failures, reversal_failures[:3]
    assert not merge_failures, merge_failures[:3]
    assert not transpose_failures, transpose_failures[:3]
    assert not control_failures, control_failures


def test_criterion_03_functoriality():
    """Mapping along a hom commutes with the ring product, exactly."""
    failures = []
    alphabet = ("a", "b", "c", "d")

    def rand_sum(rng):
        acc = FormalSum.zero()
        for _ in range(rng.randint(1, 3)):
            ms = Multiset(random_word(rng, alphabet, 2)
                          for _ in range(rng.randint(0, 2)))
            coeff = rng.randint(1, 3) * (-1) ** rng.randint(0, 1)
            acc = acc + FormalSum.of(ms, coeff)
        return acc

    for ring, size, seed in ((QQ, 2, 1004), (ModRing(7), 3, 1005)):
        for trial in range(100):
            rng = substream(seed, trial)
            s, t = rand_sum(rng), rand_sum(rng)
            hom = LetterHom({l: random_matrix(rng, ring, size, 4)
                             for l in alphabet})
            lhs = formal_product(s, t).map_elements(hom)
            rhs = formal_product(s.map_elements(hom), t.map_elements(hom))
            if lhs != rhs:
                failures.append((ring.describe(), trial))
    _line(3, "functoriality", not failures, "100 sums x M2(Q), M3(Z/7)")
    assert not failures, failures[:5]


def test_criterion_04_product_formula():
    """form(x X y) = form(x) * form(y) for every split n + m <= 6."""
    start = time.perf_counter()
    failures = []
    pairs = [(n, s - n) for s in range(7) for n in range(s + 1)]
    algebras = ((QQ, 2, 1006), (QQ, 3, 1016), (ModRing(101), 2, 1026))
    for ring, size, seed in algebras:
        f = matrix_trace(ring, size, pseudocharacter=False)
        for pair_idx, (n, m) in enumerate(pairs):
            for trial in range(50):
                rng = substream(seed + pair_idx, trial)
                x = Multiset(random_matrix(rng, ring, size, 5)
                             for _ in range(n))
                y = Multiset(random_matrix(rng, ring, size, 5)
                             for _ in range(m))
                lhs, rhs, ok = product_formula_check(f, x, y)
                if not ok:
                    failures.append((ring.describe(), size, n, m, trial))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _line(4, "product-formula", ok,
          f"28 splits x 50 tuples x 3 algebras, {elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_05_degree_d_formula():
    """The dimension-d product formula, plus its negative control."""
    failures = []
    for ring, seed in ((QQ, 1007), (ModRing(7), 1017)):
        for d in (1, 2, 3):
            f = matrix_trace(ring, d)
            for trial in range(100):
                mats = _mats(seed + d, trial, 2 * d, ring=ring, size=d)
                _, _, ok = degree_product_check(f, mats[:d], mats[d:])
                if not ok:
                    failures.append((ring.describe(), d, trial))

    g = matrix_trace(QQ, 2, 1)
    _, _, control_holds = degree_product_check(
        g, (Matrix(QQ, [[1, 2], [3, 4]]),), (Matrix(QQ, [[0, 1], [1, 0]]),))
    ok = not failures and not control_holds
    _line(5, "degree-d-formula", ok,
          "d in {1,2,3} x {rational, mod 7} x 100 tuples; "
          f"negative control {'failed as required' if not control_holds else 'DID NOT FAIL'}")
    assert not failures, failures[:5]
    assert not control_holds, "wrong-dimension control unexpectedly held"


def test_criterion_06_determinant_roundtrip():
    """det = Leibniz, multiplicativity, char poly, trace recovery."""
    start = time.perf_counter()
    failures = []
    for ring, seed in ((QQ, 1008), (ModRing(101), 1018)):
        for d in (1, 2, 3):
            f = matrix_trace(ring, d)
            for trial in range(200):
                x, y = _mats(seed + d, trial, 2, ring=ring, size=d)
                if determinant(f, x) != leibniz_det(x):
                    failures.append(("det", ring.describe(), d, trial))
                _, _, mult_ok = multiplicativity_check(f, x, y)
                if not mult_ok:
                    failures.append(("mult", ring.describe(), d, trial))
                cp = char_poly(f, x)
                oracle = char_poly_leibniz(x)
                if not (len(cp.coefficients) == len(oracle) and all(
                        a == b for a, b in zip(cp.coefficients, oracle))):
                    failures.append(("charpoly", ring.describe(), d, trial))
                if not cp.is_monic() or cp.trace() != f(x):
                    failures.append(("trace", ring.describe(), d, trial))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _line(6, "determinant-roundtrip", ok,
          f"200 matrices x d in {{1,2,3}} x 2 rings, {elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_07_identity_padding():
    """form_n(x, 1, .., 1) equals the falling-factorial closed form."""
    failures = []
    for size, seed in ((2, 1009), (3, 1019)):
        f = matrix_trace(QQ, size, pseudocharacter=False)
        for n in range(1, 7):
            for trial in range(100):
                x = _mats(seed + n, trial, 1, size=size)[0]
                _, _, ok = identity_padding_check(f, x, n)
                if not ok:
                    failures.append((size, n, trial))
    _line(7, "identity-padding", not failures,
          "n <= 6 x M2, M3 x 100 samples")
    assert not failures, failures[:5]


def test_criterion_08_oracle_equivalence():
    """The recursion agrees with the permutation cycle sum for n <= 6."""
    failures = []
    for ring, seed in ((QQ, 1010), (ModRing(101), 1020)):
        f = matrix_trace(ring, 2, pseudocharacter=False)
        for n in range(1, 7):
            for trial in range(50):
                args = _mats(seed + n, trial, n, ring=ring)
                if recursive_form(f, args) != cycle_sum_form(f, args):
                    failures.append((ring.describe(), n, trial))
    _line(8, "oracle-equivalence", not failures,
          "n <= 6 x 50 tuples x 2 rings")
    assert not failures, failures[:5]


def test_criterion_09_vanishing():
    """form_k vanishes identically for d < k <= d + 2."""
    failures = []
    for d in (1, 2, 3):
        f = matrix_trace(QQ, d)
        for k in range(d + 1, d + 3):
            for trial in range(100):
                args = _mats(1011 + 10 * d + k, trial, k, size=d)
                if recursive_form(f, args) != 0:
                    failures.append((d, k, trial))
    _line(9, "vanishing-above-dimension", not failures,
          "d in {1,2,3}, k <= d+2, 100 tuples each")
    assert not failures, failures[:5]


#: sha256 of the `check all --seed 42` report body, durations stripped
#: (ROADMAP.md, Baseline).  Any change of a report byte changes it.
SEED_42_DIGEST = \
    "3ffc0b6efba5e3e2a5c2aa037073d4f6adef553da0deb6d0d61e5aa52fb7802e"


def test_criterion_10_reproducibility(tmp_path):
    """Two `check all --seed 42` runs give byte-identical report bodies,
    and the body is the recorded seed-42 report."""
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    # this tree's package, not another installed copy
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for path in paths:
        result = subprocess.run(
            [sys.executable, "-m", "pseudodet.cli", "check", "all",
             "--seed", "42", "--quiet", "--json", str(path)],
            capture_output=True, text=True, timeout=600, env=env)
        assert result.returncode == 0, result.stderr

    def stripped_bytes(path):
        doc = json.loads(path.read_text())

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items()
                        if not k.endswith("duration_seconds")}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        return json.dumps(strip(doc), sort_keys=True,
                          separators=(",", ":")).encode()

    first, second = stripped_bytes(paths[0]), stripped_bytes(paths[1])
    digest = hashlib.sha256(first).hexdigest()
    ok = first == second and digest == SEED_42_DIGEST
    _line(10, "seeded-reproducibility", ok,
          f"{len(first)} identical bytes (durations excluded), "
          f"sha256 {digest[:8]}")
    assert first == second
    assert digest == SEED_42_DIGEST
