"""PRNG determinism, oracles, suite runs, and report structure."""

import math
from fractions import Fraction
from itertools import permutations, zip_longest

import pytest

from pseudodet import (ConfigError, Matrix, ModRing, Poly, QPOLY, QQ,
                       SuiteConfig, char_poly, char_poly_leibniz,
                       default_all_configs, determinant, leibniz_det,
                       matrix_trace, random_matrix, random_word, run_suite)
from pseudodet import Multiset, verify
from pseudodet.errors import CapExceededError
from pseudodet.pseudochar import _signed_perms
from pseudodet.rings import ring_from_spec
from pseudodet.verify import (SUITE_NAMES, CheckRecord, SplitMix64,
                              SuiteReport, _column_steps, substream)


def table_sizes() -> list:
    """How many sizes the permutation and column-step tables hold.  A
    refused size raises before either table builds anything, and
    ``functools.cache`` stores no exception, so a refusal leaves both
    counts as they were."""
    return [table.cache_info().currsize
            for table in (_signed_perms, _column_steps)]


class TestPrng:
    def test_same_seed_same_sequence(self):
        a, b = SplitMix64(12345), SplitMix64(12345)
        assert [a.next_u64() for _ in range(20)] == \
            [b.next_u64() for _ in range(20)]

    def test_known_first_outputs(self):
        # frozen golden values pin the generator across refactors
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535
        assert rng.next_u64() == 7960286522194355700

    def test_randint_range(self):
        rng = SplitMix64(7)
        values = [rng.randint(-5, 5) for _ in range(500)]
        assert all(-5 <= v <= 5 for v in values)
        assert len(set(values)) == 11  # every value appears

    def test_substreams_differ_and_reproduce(self):
        s0, s1 = substream(42, 0), substream(42, 1)
        assert s0.next_u64() != s1.next_u64()
        again = substream(42, 0)
        fresh = substream(42, 0)
        assert [again.next_u64() for _ in range(5)] == \
            [fresh.next_u64() for _ in range(5)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randint(3, 2)

    def test_range_wider_than_one_draw_rejected(self):
        # 2**64 values are the most one 64-bit draw reaches
        rng = SplitMix64(1)
        assert 0 <= rng.randint(0, 2**64 - 1) < 2**64
        with pytest.raises(ValueError, match="more than 2\\*\\*64 values"):
            rng.randint(0, 2**64)
        with pytest.raises(ValueError):
            rng.randint(-2**63, 2**63)

    @staticmethod
    def reference_outputs(seed):
        """The 64-bit outputs of SplitMix64(seed), one at a time: the state
        advances by the golden gamma, each output is its finalizer."""
        state = seed % 2**64
        while True:
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            yield verify._mix64(state)

    @pytest.mark.parametrize("bound", [0, 1, 5, 2**63 - 1])
    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_randints_is_count_randint_calls(self, bound, count):
        """``randints(lo, hi, k)`` gives the values of k one-at-a-time
        draws, each the next output reduced modulo the range, and leaves
        the generator where they leave it."""
        seed = 4242 + bound
        rng, outputs = SplitMix64(seed), self.reference_outputs(seed)
        got = rng.randints(-bound, bound, count)
        assert got == [-bound + next(outputs) % (2 * bound + 1)
                       for _ in range(count)]
        assert rng.next_u64() == next(outputs)

    def test_randint_is_one_of_randints(self):
        a, b = SplitMix64(99), SplitMix64(99)
        assert [a.randint(-5, 5) for _ in range(20)] == b.randints(-5, 5, 20)
        assert a.next_u64() == b.next_u64()

    def test_randints_refuses_a_range_wider_than_one_draw(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match="more than 2\\*\\*64 values"):
            rng.randints(-2**63, 2**63, 4)
        with pytest.raises(ValueError, match="^empty range"):
            rng.randints(3, 2, 4)
        # a refused call draws nothing
        assert rng.next_u64() == SplitMix64(1).next_u64()

    @staticmethod
    def assert_refused_without_a_draw(call, message):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(rng)
        assert rng.next_u64() == SplitMix64(1).next_u64()

    def test_randints_refuses_a_negative_count(self):
        self.assert_refused_without_a_draw(
            lambda rng: rng.randints(0, 5, -1), "count must be >= 0, got -1")

    def test_randints_refuses_a_bool_count(self):
        self.assert_refused_without_a_draw(
            lambda rng: rng.randints(0, 5, True),
            "count must be an int, got True")

    def test_randints_refuses_a_float_count(self):
        self.assert_refused_without_a_draw(
            lambda rng: rng.randints(0, 5, 2.0),
            "count must be an int, got 2.0")

    @pytest.mark.parametrize("lo,hi,name,value", [
        (0, 5.5, "hi", "5.5"), (0, 5.0, "hi", "5.0"), (0.0, 5, "lo", "0.0"),
        (False, 5, "lo", "False")])
    def test_randints_refuses_a_bound_that_is_not_an_int(self, lo, hi, name,
                                                         value):
        message = f"{name} must be an int, got {value}"
        self.assert_refused_without_a_draw(
            lambda rng: rng.randints(lo, hi, 2), message)
        self.assert_refused_without_a_draw(
            lambda rng: rng.randint(lo, hi), message)

    def test_largest_bound_draws_both_signs(self):
        bound = 2**63 - 1
        rng = substream(42, 0)
        values = [rng.randint(-bound, bound) for _ in range(64)]
        assert all(-bound <= v <= bound for v in values)
        assert min(values) < 0 < max(values)


class TestRandomElements:
    def test_zero_bound_gives_zero_matrix(self):
        rng = substream(1, 0)
        assert random_matrix(rng, QQ, 3, 0) == Matrix.zero(QQ, 3)

    def test_entries_within_bound(self):
        rng = substream(2, 0)
        for _ in range(50):
            m = random_matrix(rng, QQ, 2, 5)
            assert all(-5 <= v <= 5 for row in m.rows for v in row)

    def test_seeded_reproducibility(self):
        a = random_matrix(substream(3, 9), QQ, 3, 7)
        b = random_matrix(substream(3, 9), QQ, 3, 7)
        assert a == b

    def test_mod_entries_are_residues(self):
        ring = ModRing(7)
        m = random_matrix(substream(4, 0), ring, 2, 5)
        assert all(0 <= v < 7 for row in m.rows for v in row)

    def test_random_word_lengths(self):
        rng = substream(5, 0)
        for _ in range(50):
            w = random_word(rng, ("a", "b"), 4)
            assert 1 <= len(w) <= 4
            assert set(w.letters) <= {"a", "b"}


def cofactor_det(matrix):
    """Independent oracle: recursive cofactor expansion along row 0."""
    n = matrix.n
    rows = [[matrix.entry(i, j) for j in range(n)] for i in range(n)]

    def det(block):
        if len(block) == 1:
            return block[0][0]
        total = None
        for j, lead in enumerate(block[0]):
            minor = [[row[k] for k in range(len(row)) if k != j]
                     for row in block[1:]]
            term = lead * det(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total

    return det(rows)


def inversions(perm):
    return sum(perm[i] > perm[j] for i in range(len(perm))
               for j in range(i + 1, len(perm)))


def literal_leibniz(cells):
    """Reference for both oracles, sharing no code with them: the n!-term
    Leibniz sum written out, one term per permutation of
    ``itertools.permutations``, its sign the parity of its inversions.
    Unreduced."""
    n = len(cells)
    total = None
    for perm in permutations(range(n)):
        term = cells[0][perm[0]]
        for i in range(1, n):
            term = term * cells[i][perm[i]]
        if inversions(perm) % 2:
            term = -term
        total = term if total is None else total + term
    return total


class InT(tuple):
    """A polynomial in t as its tuple of coefficients, lowest degree
    first, with the ``+``, unary ``-`` and ``*`` of ``literal_leibniz``."""

    def __add__(self, other):
        return InT(a + b for a, b in zip_longest(self, other, fillvalue=0))

    def __neg__(self):
        return InT(-a for a in self)

    def __mul__(self, other):
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] = out[i + j] + a * b
        return InT(out)


def literal_char_poly(matrix):
    """Reference: ``literal_leibniz`` of t*I - x, each cell in ``InT``,
    its coefficients reduced by the matrix's ring."""
    n, rows = matrix.n, matrix.rows
    cells = [[InT((-rows[i][j], 1) if i == j else (-rows[i][j],))
              for j in range(n)] for i in range(n)]
    return tuple(map(matrix.ring.cell, literal_leibniz(cells)))


def _fraction_matrix(rng, size):
    return Matrix(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(size)] for _ in range(size)])


def draw_matrix(spec, size, index):
    """A seeded ``size`` x ``size`` matrix: integer cells in [-5, 5] over
    ``spec``'s ring, or ``Fraction`` cells for "fractions"."""
    rng = substream(11, index)
    if spec == "fractions":
        return _fraction_matrix(rng, size)
    return random_matrix(rng, ring_from_spec(spec), size, 5)


def generic_matrix(size):
    """The ``size`` x ``size`` matrix of independent variables x_ij."""
    return Matrix(QPOLY, [[Poly.variable(f"x{i}{j}") for j in range(size)]
                          for i in range(size)])


ORACLE_SPECS = ["rational", "fractions", "mod:7", "mod:101"]


def forbid_form_recursion(monkeypatch):
    """Make every route into the recursive forms raise: ``form``, the
    memoized evaluator's only entry point, and the literal recursion,
    ``literal_form``."""
    import pseudodet.pseudochar as pc

    def boom(*a, **k):
        raise AssertionError("oracle called the recursion")

    monkeypatch.setattr(pc._FormEvaluator, "form", boom)
    monkeypatch.setattr(pc, "literal_form", boom)
    f = pc.matrix_trace(QQ, 2)
    x = Matrix(QQ, [[1, 2], [3, 4]])
    for form in (pc.recursive_form, pc.literal_form):
        with pytest.raises(AssertionError, match="oracle called"):
            form(f, (x,))


class TestLeibnizDet:
    def test_identity(self):
        for d in (1, 2, 3, 4):
            assert leibniz_det(Matrix.identity(QQ, d)) == 1

    def test_two_by_two_symbolic(self):
        a, b, c, d = (Poly.variable(v) for v in "abcd")
        m = Matrix(QPOLY, [[a, b], [c, d]])
        assert leibniz_det(m) == a * d - b * c

    def test_three_by_three_against_cofactor(self):
        for t in range(25):
            m = random_matrix(substream(6, t), QQ, 3, 6)
            assert leibniz_det(m) == cofactor_det(m)

    def test_mod_matches_lifted_rational(self):
        ring = ModRing(11)
        for t in range(25):
            m = random_matrix(substream(7, t), ring, 3, 10)
            lifted = Matrix(QQ, [list(row) for row in m.rows])
            assert leibniz_det(m) == ring.cell(leibniz_det(lifted))

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_matches_literal_sum(self, spec):
        """Same value and same type as the n!-term sum, n = 1..6."""
        for n in range(1, 7):
            for t in range(3):
                m = draw_matrix(spec, n, 10 * n + t)
                got = leibniz_det(m)
                want = m.ring.cell(literal_leibniz(m.rows))
                assert got == want and type(got) is type(want)

    def test_generic_three_by_three(self):
        x = generic_matrix(3)
        assert leibniz_det(x) == literal_leibniz(x.rows)

    def test_size_cap(self):
        before = table_sizes()
        with pytest.raises(CapExceededError, match="^size 8 exceeds the "
                           "permutation cap of 7$"):
            leibniz_det(Matrix.identity(QQ, 8))
        assert table_sizes() == before

    def test_independent_of_form_recursion(self, monkeypatch):
        # the oracle must not route through the recursive forms
        forbid_form_recursion(monkeypatch)
        m = Matrix(QQ, [[1, 2], [3, 4]])
        assert leibniz_det(m) == -2


class TestSignedPerms:
    def test_signs_are_inversion_parity(self):
        for n in range(1, 8):
            table = _signed_perms(n)
            assert [perm for perm, _, _ in table] == \
                list(permutations(range(n)))
            for perm, sign, _ in table:
                inversions = sum(perm[i] > perm[j] for i in range(n)
                                 for j in range(i + 1, n))
                assert sign == (-1) ** inversions
            assert _signed_perms(n) is table

    def test_cycles_follow_the_perm(self):
        """Each row's cycles are tuples that partition range(n), each
        starting at its smallest element and following i -> perm[i]."""
        for n in range(1, 8):
            for perm, _, cycles in _signed_perms(n):
                assert type(cycles) is tuple
                assert sorted(i for c in cycles for i in c) == list(range(n))
                for c in cycles:
                    assert type(c) is tuple and c[0] == min(c)
                    assert [perm[i] for i in c] == list(c[1:] + c[:1])


class TestSizeSeven:
    """Size 7 is the largest the oracles take: there they agree with the
    form recursion over Q, mod 11 (7! invertible, 14! not) and mod 101."""

    @pytest.mark.parametrize("spec", ["rational", "mod:11", "mod:101"])
    def test_oracles_match_the_forms(self, spec):
        ring = ring_from_spec(spec)
        f = matrix_trace(ring, 7)
        for t in range(3):
            x = random_matrix(substream(77, t), ring, 7, 5)
            assert leibniz_det(x) == determinant(f, x)
            assert char_poly_leibniz(x) == char_poly(f, x).coefficients

    def test_char_poly_mod_13(self):
        ring = ModRing(13)
        f = matrix_trace(ring, 7)
        for t in range(3):
            x = random_matrix(substream(713, t), ring, 7, 6)
            assert char_poly_leibniz(x) == char_poly(f, x).coefficients


class TestCharPolyLeibniz:
    def test_rational_two_by_two(self):
        m = Matrix(QQ, [[1, 2], [3, 4]])
        assert char_poly_leibniz(m) == (-2, -5, 1)

    def test_mod_reduction(self):
        ring = ModRing(7)
        m = Matrix(ring, [[1, 2], [3, 4]])
        got = char_poly_leibniz(m)
        assert got == (5, 2, 1) == tuple(map(ring.cell, (-2, -5, 1)))

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_matches_symbolic_reference(self, spec):
        """Same value and same type (int or Fraction) in every
        coefficient as the n!-term sum over coefficient lists in t, for
        d = 1..6."""
        for d in range(1, 7):
            for t in range(3):
                m = draw_matrix(spec, d, 10 * d + t)
                got, want = char_poly_leibniz(m), literal_char_poly(m)
                assert got == want
                assert [type(c) for c in got] == [type(c) for c in want]

    def test_generic_two_by_two(self):
        a, b, c, d = (Poly.variable(v) for v in "abcd")
        got = char_poly_leibniz(Matrix(QPOLY, [[a, b], [c, d]]))
        assert got == (a * d - b * c, -a - d, 1)
        assert all(isinstance(coeff, Poly) for coeff in got)

    def test_generic_three_by_three(self):
        x = generic_matrix(3)
        got = char_poly_leibniz(x)
        assert got == literal_char_poly(x)
        assert all(isinstance(coeff, Poly) for coeff in got)

    def test_cell_variable_named_t(self):
        # a cell's variable t is a scalar, not the indeterminate
        t = Poly.variable("t")
        got = char_poly_leibniz(Matrix(QPOLY, [[t, 0], [0, 1]]))
        assert got == (t, -t - 1, 1)

    def test_size_cap_builds_no_table(self):
        before = table_sizes()
        with pytest.raises(CapExceededError, match="permutation cap of 7"):
            char_poly_leibniz(Matrix.identity(QQ, 8))
        assert table_sizes() == before

    def test_independent_of_form_recursion(self, monkeypatch):
        forbid_form_recursion(monkeypatch)
        m = Matrix(QQ, [[1, 2], [3, 4]])
        assert char_poly_leibniz(m) == (-2, -5, 1)


class TestColumnSteps:
    """Both oracles walk ``_column_steps``: each permutation of S_n is
    exactly one path through its steps, and the parities along the path
    add up to the permutation's inversion parity."""

    def test_every_permutation_one_path(self):
        for n in range(1, 8):
            table = _column_steps(n)
            assert len(table) == n
            lookup, paths = [], [1] + [0] * ((1 << n) - 1)
            for i, steps in enumerate(table):
                assert all(mask.bit_count() == i for mask, _, _, _ in steps)
                lookup.append({(mask, j): (to, odd)
                               for mask, j, to, odd in steps})
                assert len(lookup[i]) == len(steps)
                for mask, _, to, _ in steps:
                    paths[to] += paths[mask]
            assert paths[-1] == math.factorial(n)
            for perm in permutations(range(n)):
                mask, parity = 0, 0
                for i, j in enumerate(perm):
                    to, odd = lookup[i][mask, j]
                    assert to == mask | 1 << j
                    mask, parity = to, parity ^ odd
                assert parity == inversions(perm) % 2
            assert _column_steps(n) is table

    def test_size_cap_builds_no_step(self):
        before = table_sizes()
        for oracle in (leibniz_det, char_poly_leibniz):
            with pytest.raises(CapExceededError, match="^size 8 exceeds the "
                               "permutation cap of 7$"):
                oracle(Matrix.identity(QQ, 8))
        for table in (_signed_perms, _column_steps):
            with pytest.raises(CapExceededError):
                table(8)
        assert table_sizes() == before


class TestSuiteRuns:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_each_suite_passes_smoke(self, suite):
        ring = "words" if suite == "assoc" else "mod:7"
        cfg = SuiteConfig(suite, ring=ring, dim=2, trials=6, seed=3)
        report = run_suite(cfg)
        assert report.passed, report.text_lines()
        counts = report.counts()
        assert counts["negative_controls"] >= 1
        assert counts["misbehaved"] == 0

    def test_det_mult_two_hundred_trials(self):
        cfg = SuiteConfig("det-mult", ring="rational", dim=2,
                          trials=200, seed=17)
        report = run_suite(cfg)
        assert report.passed
        assert report.counts()["checks"] == 2 * 200 + 2

    def test_deterministic_reports(self):
        cfg = SuiteConfig("det-mult", ring="rational", dim=2,
                          trials=10, seed=99)
        first = run_suite(cfg).to_dict()
        second = run_suite(cfg).to_dict()
        first.pop("duration_seconds")
        second.pop("duration_seconds")
        assert first == second

    def test_different_seeds_differ(self):
        base = dict(ring="rational", dim=2, trials=5)
        r1 = run_suite(SuiteConfig("det-mult", seed=1, **base)).to_dict()
        r2 = run_suite(SuiteConfig("det-mult", seed=2, **base)).to_dict()
        assert r1["checks"] != r2["checks"]

    def test_report_shape(self):
        cfg = SuiteConfig("degree-d", ring="rational", dim=2,
                          trials=4, seed=5)
        doc = run_suite(cfg).to_dict()
        assert set(doc) == {"suite", "config", "checks", "counts", "pass",
                            "reproductions", "duration_seconds"}
        for check in doc["checks"]:
            assert set(check) == {"name", "trial", "inputs", "lhs", "rhs",
                                  "ok", "negative_control", "behaved"}
        assert doc["pass"] is True
        assert doc["reproductions"] == []

    @pytest.mark.parametrize("ok,control", [(True, False), (False, False),
                                            (True, True), (False, True)])
    def test_record_dict_is_its_fields_in_order(self, ok, control):
        record = CheckRecord("det-mult", 3, ("[[1]]", "[[2]]"), "2", "2", ok,
                             control)
        doc = record.to_dict()
        assert list(doc) == ["name", "trial", "inputs", "lhs", "rhs", "ok",
                             "negative_control", "behaved"]
        assert doc == {**record.fields(), "inputs": ["[[1]]", "[[2]]"],
                       "behaved": ok != control}

    def test_misbehaving_record_is_printed_unless_quiet(self):
        """A failing suite prints each misbehaving record with what
        reproduces it; a behaving record, or ``quiet``, prints none."""
        cfg = SuiteConfig("det-mult", ring="mod:7", dim=2, seed=9)
        records = (
            CheckRecord("det-of-unit", 0, ("[[1,0],[0,1]]",), "1 mod 7",
                        "1 mod 7", True, False),
            CheckRecord("det-vs-leibniz", 3, ("[[1,2],[3,4]]",
                                              "[[0,1],[1,0]]"),
                        "5 mod 7", "6 mod 7", False, False))
        report = SuiteReport(cfg, records, 0.0, None)
        lines = report.text_lines()
        assert lines[0] == ("suite det-mult [ring=mod:7 dim=2]: FAIL "
                            "(1/2 checks, 0 negative controls) in 0.00s")
        assert lines[1:] == [
            "  MISBEHAVED det-vs-leibniz (trial 3, seed 9)",
            "    input: [[1,2],[3,4]]",
            "    input: [[0,1],[1,0]]",
            "    lhs: 5 mod 7",
            "    rhs: 6 mod 7"]
        assert report.text_lines(quiet=True) == lines[:1]

    def test_word_assoc_covers_all_cardinalities(self):
        cfg = SuiteConfig("assoc", ring="words", trials=1, seed=0)
        report = run_suite(cfg)
        names = {r.name for r in report.records}
        for n in range(4):
            for m in range(4):
                for k in range(4):
                    assert f"assoc-words({n},{m},{k})" in names


class TestSumRecords:
    """A passing sum record renders its lhs once and uses that text for
    the rhs too; it must equal the rhs rendered on its own."""

    @staticmethod
    def capture(monkeypatch):
        """The (record, rhs sum) of every ``_sum_record`` call."""
        seen = []
        make = verify._sum_record

        def spy(name, trial, inputs, lhs, rhs, *args, **kwargs):
            record = make(name, trial, inputs, lhs, rhs, *args, **kwargs)
            seen.append((record, rhs))
            return record

        monkeypatch.setattr(verify, "_sum_record", spy)
        return seen

    def assert_rhs_rendered_alone(self, seen):
        passing = [(r, rhs) for r, rhs in seen if r.ok]
        assert passing
        for record, rhs in passing:
            assert record.rhs == verify._fmt_sum(rhs, True)
        return passing

    @pytest.mark.parametrize("suite,ring", [
        ("assoc", "mod:7"), ("functoriality", "mod:7"), ("assoc", "words")])
    def test_suite_records(self, suite, ring, monkeypatch):
        seen = self.capture(monkeypatch)
        trials = {} if ring == "words" else {"trials": 12, "seed": 5}
        assert run_suite(SuiteConfig(suite, ring=ring, **trials)).passed
        self.assert_rhs_rendered_alone(seen)

    def test_fraction_cells(self, monkeypatch):
        """Over the rationals with ``Fraction`` cells, both short sums and
        sums past the length limit."""
        seen = self.capture(monkeypatch)
        for trial in range(6):
            rng = substream(23, trial)
            cards = rng.randints(0, 2, 3)
            xyz = [Multiset(Matrix(QQ, [[Fraction(v, 2 + (v % 3))
                                         for v in rng.randints(-4, 4, 2)]
                                        for _ in range(2)])
                            for _ in range(card)) for card in cards]
            verify._sum_record("fractions", trial, (),
                               *verify._assoc_sides(*xyz))
        passing = self.assert_rhs_rendered_alone(seen)
        assert any(isinstance(v, Fraction) and v.denominator > 1
                   for _, rhs in passing for e in rhs.ranked_terms()[0]
                   for row in e.rows for v in row)
        texts = {record.rhs.startswith("<formal sum") for record, _ in passing}
        assert texts == {True, False}


class TestNoncentralControls:
    """The records of the two controls that use the non-central corner
    entry.  Their values depend on the memo's key order (element order,
    largest element peeled), so they are pinned here by value, not only
    through the seed-42 digest."""

    @pytest.mark.parametrize("suite,name,lhs,rhs", [
        ("product-formula", "product-formula-noncentral-control", "23", "6"),
        ("taylor-equiv", "taylor-equiv-noncentral-control", "-36", "-21"),
    ])
    def test_record(self, suite, name, lhs, rhs):
        report = run_suite(SuiteConfig(suite, ring="rational", dim=2,
                                       trials=1, seed=42))
        (record,) = [r for r in report.records if r.name == name]
        assert (record.lhs, record.rhs, record.ok) == (lhs, rhs, False)
        assert record.negative_control and record.behaved


class TestConfigValidation:
    #: the suites that assume a pseudocharacter, hence an invertible dim!
    FACTORIAL_SUITES = ("degree-d", "det-mult", "charpoly", "pseudochar-axioms")

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_factorial_must_be_invertible(self, suite):
        """3! = 6 is not invertible mod 6: exactly the four suites that
        assume a pseudocharacter refuse to build the cell."""
        if suite in self.FACTORIAL_SUITES:
            with pytest.raises(ConfigError,
                               match="^3! not invertible mod 6$"):
                SuiteConfig(suite, ring="mod:6", dim=3, trials=1)
        else:
            SuiteConfig(suite, ring="mod:6", dim=3, trials=1)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_product_formula_allows_any_modulus(self, suite):
        """The other four assume no pseudocharacter, so they run and pass
        mod 6 at dim 3; no config of the four that do can be built."""
        if suite in self.FACTORIAL_SUITES:
            with pytest.raises(ConfigError, match="not invertible"):
                run_suite(SuiteConfig(suite, ring="mod:6", dim=3, trials=1))
        else:
            assert run_suite(SuiteConfig(suite, ring="mod:6", dim=3,
                                         trials=1)).passed

    def test_construction_is_the_one_check(self):
        """A config is checked when it is built, so no caller checks it
        again: there is no separate ``validate``."""
        assert not hasattr(SuiteConfig, "validate")

    def test_words_only_for_assoc(self):
        with pytest.raises(ConfigError):
            SuiteConfig("degree-d", ring="words")

    def test_trials_and_bound_positive(self):
        with pytest.raises(ConfigError):
            SuiteConfig("assoc", trials=0)
        with pytest.raises(ConfigError):
            SuiteConfig("assoc", bound=0)
        with pytest.raises(ConfigError,
                           match=r"^bound must be <= 2\*\*63 - 1$"):
            SuiteConfig("assoc", bound=2**63)

    def test_unknown_suite_and_ring(self):
        with pytest.raises(ConfigError):
            SuiteConfig("nope")
        with pytest.raises(ConfigError):
            SuiteConfig("assoc", ring="float")

    def test_leibniz_size_cap(self):
        with pytest.raises(ConfigError, match="permutation cap of 7"):
            SuiteConfig("det-mult", ring="rational", dim=8)
        SuiteConfig("det-mult", ring="rational", dim=7)

    def test_caps_come_before_the_factorial(self):
        """A huge dim is refused by its cap before dim! is computed, so
        mod 101 the cap is named, not 100000! being 0 mod 101."""
        with pytest.raises(ConfigError, match="permutation cap of 7"):
            SuiteConfig("det-mult", ring="mod:101", dim=100_000)

    @pytest.mark.parametrize("field,kwargs", [
        ("dim", {"dim": 2.5}), ("trials", {"trials": 2.0}),
        ("seed", {"seed": "x"}), ("budget", {"budget": 1.5}),
        ("trials", {"trials": True}), ("ring", {"ring": 7})])
    def test_field_of_the_wrong_type(self, field, kwargs):
        """Each field has one type, int or str, a bool being no int; the
        refusal names the field and the value."""
        (value,) = kwargs.values()
        with pytest.raises(ConfigError, match=f"^{field} must be of type "
                           f"(int|str), got {value!r}$"):
            SuiteConfig("assoc", **kwargs)

    @pytest.mark.parametrize("suite,dim,cap,largest", [
        ("det-mult", 8, "permutation cap of 7", 7),
        ("charpoly", 8, "permutation cap of 7", 7),
        ("degree-d", 7, "cap of 6", 6),
        ("pseudochar-axioms", 8, "recursion cap of 8", 7)] + [
        (suite, 33, "^dim 33 is past the cap of 32 for " + suite, 32)
        for suite in ("assoc", "functoriality", "product-formula",
                      "taylor-equiv")])
    def test_recursion_cap(self, suite, dim, cap, largest):
        """det and the char poly take forms of dim arguments, under the
        recursion cap of 8, but their oracles sum over dim! permutations,
        under the permutation cap of 7; the vanishing axiom takes dim + 1
        arguments; degree-d evaluates 2^dim - 1 forms of dim arguments in
        each trial, so it stops at 6; the other suites draw dim x dim matrices
        in each trial, up to 32.  The largest dim under the cap builds."""
        with pytest.raises(ConfigError, match=cap):
            SuiteConfig(suite, dim=dim)
        SuiteConfig(suite, dim=largest)

    def test_echo_pins_the_fixed_parameters(self):
        """The report's config bytes: seven fields, size (always dim) and
        five fixed values."""
        assert SuiteConfig("det-mult", dim=2).echo() == {
            "suite": "det-mult", "ring": "rational", "size": 2, "dim": 2,
            "trials": 50, "seed": 0, "bound": 5, "budget": 10**7,
            "rec_cap": 8, "oracle_cap": 7, "word_card": 3, "pair_sum": 4,
            "taylor_max_n": 4}


def test_default_all_configs_matrix():
    configs = default_all_configs(seed=1, trials=2)
    assert configs[1:9] == [SuiteConfig(suite, ring="rational", dim=1, seed=1,
                                        trials=2) for suite in SUITE_NAMES]
    suites = [c.suite for c in configs]
    assert suites.count("assoc") == 10  # words + 9 matrix cells
    assert len(configs) == 1 + 9 * 8
    assert all(c.seed == 1 and c.trials == 2 for c in configs)
    cells = {(c.ring, c.dim) for c in configs if c.ring != "words"}
    assert cells == {(r, d) for r in ("rational", "mod:7", "mod:101")
                     for d in (1, 2, 3)}
