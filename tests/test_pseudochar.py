"""Recursive forms, the cycle-sum oracle, determinants, char polys."""

import gc
import math
import re
from fractions import Fraction
from itertools import permutations

import pytest

from pseudodet import (CapExceededError, CentralFunction, CharPoly,
                       FormalSum, GroupAlgebraElement, GroupTable, Matrix,
                       MismatchError, ModRing, Multiset, NotInvertibleError, Poly, QPOLY, QQ,
                       UnitlessError, Word, char_poly,
                       char_poly_interpolated, check_pseudocharacter,
                       cycle_sum_form, degree_product_check, determinant,
                       form_on_sum, identity_padding_check, literal_form,
                       matrix_trace, multiset_product, multiplicativity_check,
                       product_formula_check, recursive_form, regular_trace,
                       ring_from_spec, word)
from pseudodet import elements, pseudochar
from pseudodet.pseudochar import _FormEvaluator
from pseudodet.rings import RationalRing
from pseudodet.verify import (_CORNER, char_poly_leibniz, leibniz_det,
                              random_matrix, substream)


# --- hand-coded oracles -----------------------------------------------------

def form2_oracle(f, x1, x2):
    """f(x1)f(x2) - f(x1 x2)."""
    return f(x1) * f(x2) - f(x1 * x2)


def form3_oracle(f, x1, x2, x3):
    """The six-term degree-3 expansion."""
    return (f(x1) * f(x2) * f(x3)
            - f(x1 * x2) * f(x3)
            - f(x1 * x3) * f(x2)
            - f(x2 * x3) * f(x1)
            + f(x1 * x2 * x3)
            + f(x1 * x3 * x2))


def symbolic_word_function():
    """f sending each word to its own polynomial variable; evaluating the
    recursion with it yields the literal formal expansion."""
    return CentralFunction(lambda w: Poly.variable(f"f[{w.render()}]"), 1,
                           QPOLY, name="formal")


def necklace_function():
    """A genuinely central function on free words: each word maps to the
    variable of its lexicographically least rotation, so f(uv) = f(vu)."""
    def canon(w: Word) -> str:
        ls = w.letters
        return min("*".join(ls[i:] + ls[:i]) for i in range(len(ls)))
    return CentralFunction(lambda w: Poly.variable(f"f[{canon(w)}]"), 1,
                           QPOLY, name="necklace")


def rand_mats(seed, count, ring=QQ, size=2, bound=5):
    return [random_matrix(substream(seed, t), ring, size, bound)
            for t in range(count)]


# --- the recursion ----------------------------------------------------------

class TestRecursiveForm:
    def test_formal_footnote_degree_2(self):
        f = symbolic_word_function()
        got = literal_form(f, (word("x1"), word("x2")))
        expected = form2_oracle(f, word("x1"), word("x2"))
        assert got == expected

    def test_formal_footnote_degree_3(self):
        f = symbolic_word_function()
        args = (word("x1"), word("x2"), word("x3"))
        assert literal_form(f, args) == form3_oracle(f, *args)

    def test_formal_cycle_sum_matches_footnote(self):
        f = symbolic_word_function()
        a = (word("x1"), word("x2"))
        assert cycle_sum_form(f, a) == form2_oracle(f, *a)
        b = (word("x1"), word("x2"), word("x3"))
        assert cycle_sum_form(f, b) == form3_oracle(f, *b)

    def test_numeric_footnotes_on_matrices(self):
        f = matrix_trace(QQ, 2)
        for t in range(25):
            x1, x2, x3 = rand_mats(100 + t, 3)
            assert recursive_form(f, (x1, x2)) == form2_oracle(f, x1, x2)
            assert recursive_form(f, (x1, x2, x3)) == \
                form3_oracle(f, x1, x2, x3)

    def test_identity_example(self):
        f = matrix_trace(QQ, 2)
        eye = Matrix.identity(QQ, 2)
        assert recursive_form(f, (eye, eye)) == 2 * 2 - 2

    def test_memoized_equals_plain(self):
        f = matrix_trace(QQ, 2)
        for t in range(10):
            args = tuple(rand_mats(200 + t, 4))
            assert recursive_form(f, args) == literal_form(f, args)

    def test_empty_arguments_rejected(self):
        f = matrix_trace(QQ, 2)
        with pytest.raises(ValueError):
            recursive_form(f, ())

    def test_cap(self):
        """The cap is checked before any evaluation, so 9 arguments fail
        at once on both routes."""
        f = matrix_trace(QQ, 2)
        eye = Matrix.identity(QQ, 2)
        with pytest.raises(CapExceededError, match="recursion cap of 8"):
            recursive_form(f, (eye,) * 9)
        with pytest.raises(CapExceededError, match="recursion cap of 8"):
            literal_form(f, (eye,) * 9)

    def test_cap_holds_on_every_entry(self):
        """char_poly evaluates forms of dim arguments without
        recursive_form; the cap still applies."""
        eye = Matrix.identity(QQ, 2)
        f = matrix_trace(QQ, 2, 9)
        with pytest.raises(CapExceededError, match="recursion cap of 8"):
            char_poly(f, eye)


class TestSymmetry:
    def test_matrix_forms_symmetric_exhaustively(self):
        f = matrix_trace(QQ, 2)
        for n in (2, 3, 4):
            args = tuple(rand_mats(300 + n, n))
            baseline = literal_form(f, args)
            for perm in permutations(range(n)):
                shuffled = tuple(args[i] for i in perm)
                assert literal_form(f, shuffled) == baseline

    def test_word_forms_symmetric_for_central_f(self):
        f = necklace_function()
        args = (word("a"), word("b"), word("a*b"))
        baseline = literal_form(f, args)
        for perm in permutations(range(3)):
            shuffled = tuple(args[i] for i in perm)
            assert literal_form(f, shuffled) == baseline

    def test_group_algebra_forms_symmetric(self, s3):
        f = regular_trace(s3, QQ)
        rng = substream(71, 0)
        args = tuple(
            GroupAlgebraElement(s3, QQ, [rng.randint(-2, 2) for _ in range(6)])
            for _ in range(3))
        baseline = literal_form(f, args)
        for perm in permutations(range(3)):
            shuffled = tuple(args[i] for i in perm)
            assert literal_form(f, shuffled) == baseline

    def test_sampled_symmetry_n6(self):
        f = matrix_trace(QQ, 2)
        args = tuple(rand_mats(310, 6))
        baseline = recursive_form(f, args)
        rng = substream(73, 0)
        for _ in range(5):
            order = list(range(6))
            for i in range(5, 0, -1):  # Fisher-Yates with our PRNG
                j = rng.randint(0, i)
                order[i], order[j] = order[j], order[i]
            shuffled = tuple(args[i] for i in order)
            assert literal_form(f, shuffled) == baseline


class TestMultilinearity:
    def test_additive_and_homogeneous_in_each_slot(self):
        f = matrix_trace(QQ, 2)
        base = tuple(rand_mats(320, 3))
        u, v = rand_mats(321, 2)
        for slot in range(3):
            def at(val, slot=slot):
                return base[:slot] + (val,) + base[slot + 1:]
            lhs = recursive_form(f, at(u + v))
            rhs = recursive_form(f, at(u)) + recursive_form(f, at(v))
            assert lhs == rhs
            assert recursive_form(f, at(u.scale(Fraction(3, 2)))) == \
                Fraction(3, 2) * recursive_form(f, at(u))


class TestCycleSum:
    def test_single_argument(self):
        f = matrix_trace(QQ, 2)
        x = rand_mats(330, 1)[0]
        assert cycle_sum_form(f, (x,)) == f(x)

    def test_agrees_with_recursion_up_to_6(self):
        for ring in (QQ, ModRing(101)):
            f = matrix_trace(ring, 2, pseudocharacter=False)
            for n in range(1, 7):
                for t in range(8):
                    args = tuple(rand_mats(340 + 10 * n + t, n, ring=ring))
                    assert recursive_form(f, args) == cycle_sum_form(f, args)

    def test_cap(self):
        f = matrix_trace(QQ, 2)
        eye = Matrix.identity(QQ, 2)
        with pytest.raises(CapExceededError):
            cycle_sum_form(f, (eye,) * 8)

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError,
                           match="^cycle sum needs at least one argument$"):
            cycle_sum_form(matrix_trace(QQ, 2), ())


class TestFormOnSum:
    def test_empty_multiset_gives_one(self):
        f = matrix_trace(QQ, 2)
        assert form_on_sum(f, FormalSum.unit()) == 1
        assert form_on_sum(f, FormalSum.of(Multiset(()), 5)) == 5

    def test_linearity_single_entry(self):
        f = matrix_trace(QQ, 2)
        x = rand_mats(350, 1)[0]
        assert form_on_sum(f, FormalSum.of(Multiset([x]), 3)) == 3 * f(x)

    def test_product_of_singletons(self):
        f = matrix_trace(QQ, 2)
        for t in range(20):
            x, y = rand_mats(360 + t, 2)
            value = form_on_sum(f, multiset_product(Multiset([x]),
                                                    Multiset([y])))
            assert value == f(x) * f(y)

    def test_cap_on_large_multiset(self):
        f = matrix_trace(QQ, 2)
        ms = Multiset(rand_mats(370, 9))
        with pytest.raises(CapExceededError):
            form_on_sum(f, FormalSum.of(ms))

    def test_ring_homomorphism_on_random_sums(self):
        f = matrix_trace(QQ, 2, pseudocharacter=False)

        def rand_sum(seed):
            rng = substream(seed, 0)
            acc = FormalSum.zero()
            for _ in range(rng.randint(1, 3)):
                ms = Multiset(random_matrix(rng, QQ, 2, 3)
                              for _ in range(rng.randint(0, 2)))
                acc = acc + FormalSum.of(ms, rng.randint(-3, 3))
            return acc

        for t in range(25):
            s, u = rand_sum(380 + t), rand_sum(380 + 1000 + t)
            assert form_on_sum(f, s * u) == form_on_sum(f, s) * form_on_sum(f, u)

    @pytest.mark.parametrize("case", ["rational", "mod:7", "C3"])
    def test_linear(self, case):
        """form_on_sum(s + t) and form_on_sum(k s) against the scalar sum
        and product: the two sides share no formal-sum addition, so a
        wrong ``+`` or ``scale`` of formal sums shows."""
        if case == "C3":
            c3 = GroupTable.cyclic(3)
            f = regular_trace(c3, QQ)

            def draw(rng):
                return GroupAlgebraElement(
                    c3, QQ, [rng.randint(-2, 2) for _ in range(3)])
        else:
            ring = ring_from_spec(case)
            f = matrix_trace(ring, 2, pseudocharacter=False)

            def draw(rng):
                return random_matrix(rng, ring, 2, 3)

        def rand_sum(seed):
            rng = substream(seed, 0)
            # every sum holds an empty-multiset term
            acc = FormalSum.of(Multiset(()), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3)):
                ms = Multiset(draw(rng) for _ in range(rng.randint(0, 3)))
                acc = acc + FormalSum.of(ms, rng.randint(-3, 3))
            return acc

        cell = f.ring.cell
        for t in range(15):
            s, u = rand_sum(700 + t), rand_sum(800 + t)
            for left, right in ((s, u), (s, -s), (s, u - s)):
                assert (form_on_sum(f, left + right) == cell(
                    form_on_sum(f, left) + form_on_sum(f, right)))
            for k in (-2, 0, 1, 3):
                assert form_on_sum(f, k * s) == cell(k * form_on_sum(f, s))


class TestProductFormula:
    def test_reduces_to_recursion_for_singleton(self):
        f = matrix_trace(QQ, 3, pseudocharacter=False)
        for t in range(10):
            mats = rand_mats(390 + t, 3, size=3, bound=3)
            x = Multiset(mats[:2])
            y = Multiset(mats[2:])
            lhs, rhs, ok = product_formula_check(f, x, y)
            assert ok and lhs == rhs

    def test_empty_by_empty(self):
        f = matrix_trace(QQ, 2)
        lhs, rhs, ok = product_formula_check(
            f, Multiset(()), Multiset(()))
        assert ok and lhs == 1 and rhs == 1

    @pytest.mark.parametrize("make_f", [
        lambda: CentralFunction(lambda m: m.trace() * m.trace(), 2, QQ,
                                name="trace-squared"),
        lambda: CentralFunction(lambda m: (m * m).trace(), 2, QQ,
                                name="trace-of-square"),
        lambda: CentralFunction(lambda m: m.trace() + leibniz_det(m), 2, QQ,
                                name="trace-plus-det"),
    ])
    def test_holds_for_nonlinear_central_functions(self, make_f):
        # the identity needs centrality only, not linearity or the
        # pseudocharacter axioms
        f = make_f()
        for t in range(10):
            mats = rand_mats(400 + t, 4, bound=3)
            x, y = Multiset(mats[:2]), Multiset(mats[2:])
            lhs, rhs, ok = product_formula_check(f, x, y)
            assert ok, (t, lhs, rhs)

    def test_fails_for_noncentral_function(self):
        g = CentralFunction(lambda m: m.entry(0, 1), 2, QQ, name="corner")
        x = Multiset([Matrix(QQ, [[-1, 1], [1, 1]]),
                      Matrix(QQ, [[0, 3], [-1, 0]])])
        y = Multiset([Matrix(QQ, [[-3, 1], [-2, -3]])])
        _, _, ok = product_formula_check(g, x, y)
        assert not ok


def counting_trace(ring, dim):
    """The trace as a central function that records every argument."""
    seen = []

    def evaluate(m):
        seen.append(m)
        return m.trace()

    return CentralFunction(evaluate, dim, ring, name="counted-trace"), seen


def assert_once_per_distinct(seen):
    assert seen and len(seen) == len(set(seen))


def plain_form_on_sum(f, s):
    total = f.ring.zero()
    for ms, coeff in s.terms():
        value = (literal_form(f, ms.entries) if len(ms)
                 else f.ring.one())
        total = total + coeff * value
    return f.ring.cell(total)


RINGS = pytest.mark.parametrize("ring", [QQ, ModRing(7)], ids=["QQ", "mod7"])


class TestFMemo:
    """Each evaluation computes f at most once per distinct element, and
    the memo changes no value: every result equals the literal recursion."""

    @RINGS
    @pytest.mark.parametrize("n", range(1, 6))
    def test_recursive_form(self, ring, n):
        f, seen = counting_trace(ring, 2)
        args = rand_mats(610 + n, n, ring=ring, bound=2)
        args[-1] = args[0]
        got = recursive_form(f, args)
        assert_once_per_distinct(seen)
        assert got == literal_form(f, args)

    @RINGS
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2), (1, 4)])
    def test_product_formula_check(self, ring, n, m):
        f, seen = counting_trace(ring, 2)
        mats = rand_mats(630 + 5 * n + m, n + m, ring=ring, bound=2)
        x, y = Multiset(mats[:n]), Multiset(mats[n:])
        lhs, rhs, ok = product_formula_check(f, x, y)
        assert ok
        assert_once_per_distinct(seen)
        assert lhs == plain_form_on_sum(f, multiset_product(x, y))
        assert rhs == ring.cell(literal_form(f, x.entries)
                                * literal_form(f, y.entries))

    @RINGS
    @pytest.mark.parametrize("d", range(1, 6))
    def test_char_poly(self, ring, d):
        f, seen = counting_trace(ring, d)
        x = rand_mats(650 + d, 1, ring=ring, bound=2)[0]
        got = char_poly(f, x)
        assert_once_per_distinct(seen)
        inv = ring.inverse_of_factorial(d)
        args = [(-x,) * (d - k) + (x.one(),) * k for k in range(d + 1)]
        assert got.coefficients == tuple(
            ring.cell(inv * (math.comb(d, k)
                             * literal_form(f, args[k])))
            for k in range(d + 1))


class TestArgumentOrder:
    """The evaluator sorts its arguments itself, so ``recursive_form``
    gives one value on every order of them.  Under a matrix trace it sorts
    their row tuples and compares no ``Matrix``."""

    def test_trace_n3(self):
        f = matrix_trace(QQ, 2)
        args = rand_mats(720, 3)
        assert ({recursive_form(f, p) for p in permutations(args)}
                == {literal_form(f, args)})

    def test_noncentral_corner_n4(self):
        # the corner's literal value depends on the order; the evaluator's
        # does not, because it sorts before it recurses
        args = (Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[0, 1], [1, 0]]),
                Matrix(QQ, [[2, 1], [0, 1]]), Matrix(QQ, [[1, 0], [5, 2]]))
        orders = list(permutations(args))
        assert {recursive_form(_CORNER, p) for p in orders} == {-36}
        assert len({literal_form(_CORNER, p) for p in orders}) == 21

    @RINGS
    def test_no_matrix_comparison_under_a_trace(self, monkeypatch, ring):
        f = matrix_trace(ring, 2)
        xs, ys = rand_mats(730, 2, ring=ring), rand_mats(740, 2, ring=ring)
        want = (recursive_form(f, xs + ys), determinant(f, xs[0]),
                char_poly(f, xs[0]), degree_product_check(f, xs, ys))

        def boom(self, other):
            raise AssertionError("a Matrix was compared")

        monkeypatch.setattr(Matrix, "__lt__", boom)
        assert (recursive_form(f, xs + ys), determinant(f, xs[0]),
                char_poly(f, xs[0]), degree_product_check(f, xs, ys)) == want


class TestMemoKeysInElementOrder:
    """The memo lists each key's arguments in the element order.  For a
    non-central f the memoized values depend on that order, so these pin
    the values of the non-central ``verify._CORNER`` (the (0, 1) entry of a
    2x2 matrix): any other key order moves them."""

    def test_product_formula_control(self):
        x = Multiset([Matrix(QQ, [[-1, 1], [1, 1]]),
                      Matrix(QQ, [[0, 3], [-1, 0]])])
        y = Multiset([Matrix(QQ, [[-3, 1], [-2, -3]])])
        assert product_formula_check(_CORNER, x, y) == (23, 6, False)

    def test_taylor_control(self):
        args = (Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[0, 1], [1, 0]]),
                Matrix(QQ, [[2, 1], [0, 1]]), Matrix(QQ, [[1, 0], [5, 2]]))
        assert recursive_form(_CORNER, args) == -36

    @pytest.mark.parametrize("seed,n,m,lhs,rhs,form", [
        (0, 2, 2, 176, -128, -128),
        (1, 3, 1, 246, 44, -303),
        (2, 1, 3, -290, 0, 1060),
        (3, 3, 2, 18600, 6400, 52720),
        (4, 2, 3, -1506, -1320, -460),
    ])
    def test_seeded_draws(self, seed, n, m, lhs, rhs, form):
        rng = substream(7, seed)
        mats = [random_matrix(rng, QQ, 2, 5) for _ in range(n + m)]
        x, y = Multiset(mats[:n]), Multiset(mats[n:])
        assert product_formula_check(_CORNER, x, y) == (lhs, rhs, False)
        assert recursive_form(_CORNER, mats) == form


def _evaluator_case(case, s3):
    """(f, six elements) for one backend of ``TestCellEvaluator``."""
    rng = substream(660, 0)
    # matrices of size 4, the most arguments a matrix case takes, so that
    # forms of 3 and 4 arguments are not identically 0
    if case in ("rational", "mod:7", "mod:101"):
        ring = QQ if case == "rational" else ModRing(int(case[4:]))
        return matrix_trace(ring, 4), rand_mats(661, 6, ring=ring, size=4)
    if case == "fractions":
        return matrix_trace(QQ, 4), [
            Matrix(QQ, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(4)] for _ in range(4)])
            for _ in range(6)]
    if case == "poly":
        return matrix_trace(QPOLY, 4), [
            Matrix(QPOLY, [[Poly.variable(f"{v}{i}{j}") for j in range(4)]
                           for i in range(4)]) for v in "abcdef"]
    if case == "s3":
        return regular_trace(s3, QQ), [
            GroupAlgebraElement(s3, QQ, [rng.randint(-2, 2)
                                         for _ in range(6)])
            for _ in range(6)]
    return necklace_function(), [word(w) for w in
                                 ("a", "b", "a*b", "b*a*a", "c", "a*c")]


class TestCellEvaluator:
    """The memoized evaluator computes on ring cells and writes form_1 and
    form_2 out; every value and its rendering equal the literal
    recursion's, on every backend."""

    @pytest.mark.parametrize("case", ["rational", "fractions", "mod:7",
                                      "mod:101", "poly", "s3", "words"])
    def test_memoized_equals_plain(self, case, s3):
        f, pool = _evaluator_case(case, s3)
        runs = []
        for n in range(1, 5):
            # distinct, one repeat, all equal, and out of element order
            runs += (pool[:n], pool[:n - 1] + pool[:1], [pool[1]] * n,
                     pool[-n:][::-1])
        if case == "words":
            # on free letters each key shape is the general one, as
            # polynomials: Newton's identities on x^n, the peel on x^(n-1)
            # y, x^(n-2) y^2 and x^2 y^2 z^(n-4)
            x, y, z = map(word, "xyz")
            for n in range(3, 8):
                runs += ([x] * n, [x] * (n - 1) + [y],
                         [x] * (n - 2) + [y] * 2)
                if n >= 4:
                    runs.append([x, x, y, y] + [z] * (n - 4))
        for args in runs:
            got = recursive_form(f, args)
            want = literal_form(f, args)
            assert got == want, (case, args)
            assert f.ring.render(got) == f.ring.render(want)

    def test_mod_values_are_residues(self):
        f = matrix_trace(ModRing(7), 2)
        for n in (1, 2, 3, 4):
            args = rand_mats(670 + n, n, ring=ModRing(7))
            got = recursive_form(f, args)
            assert got == literal_form(f, args)
            assert type(got) is int and 0 <= got < 7

    def test_mixed_rings_raise(self):
        f = matrix_trace(ModRing(7), 2)
        x7 = Matrix(ModRing(7), [[1, 2], [3, 4]])
        x11 = Matrix(ModRing(11), [[1, 2], [3, 4]])
        xq = Matrix(QQ, [[1, 2], [3, 4]])
        for args in ((x7, x11), (x11, x7), (x7, xq), (x7, x7, x11)):
            with pytest.raises(MismatchError):
                recursive_form(f, args)
        # an argument of another ring is refused as it enters
        with pytest.raises(MismatchError):
            recursive_form(f, (x11,))
        with pytest.raises(MismatchError):
            recursive_form(matrix_trace(QQ, 2), (x7, x7))


def _peel_case(case, s3):
    """(f, three distinct elements) for one backend of ``TestPeel``.  The
    traces are on matrices as large as the most arguments a run takes,
    so that their forms do not vanish: 6 x 6 for ``fractions`` (its
    literal recursion on 7 arguments takes seconds), else 7 x 7 (not
    declared pseudocharacters, as 7! is 0 mod 7)."""
    if case == "s3":
        rng = substream(800, 0)
        return regular_trace(s3, QQ), [
            GroupAlgebraElement(s3, QQ, [rng.randint(-2, 2) for _ in range(6)])
            for _ in range(3)]
    if case == "corner":
        return _CORNER, rand_mats(801, 3, bound=3)
    if case == "fractions":
        return matrix_trace(QQ, 6), [m.scale(Fraction(1, 2)) for m in
                                     rand_mats(802, 3, size=6, bound=2)]
    ring = ring_from_spec(case)
    return (matrix_trace(ring, 7, pseudocharacter=False),
            rand_mats(803, 3, ring=ring, size=7, bound=2))


def _spy_kernels(monkeypatch):
    """Lists that the evaluator's product and pair-trace kernels append
    their argument pairs to, from now until the test ends."""
    made, pairs = [], []
    kernels = pseudochar._kernels

    def spied_kernels(ring, size):
        mul, f_cell, pair_trace, add = kernels(ring, size)

        def spy_mul(a, b):
            made.append((a, b))
            return mul(a, b)

        def spy_pair(a, b):
            pairs.append((a, b))
            return pair_trace(a, b)
        return spy_mul, f_cell, spy_pair, add

    monkeypatch.setattr(pseudochar, "_kernels", spied_kernels)
    return made, pairs


class TestPeel:
    """Equal arguments sit side by side in a memo key, so under an f not
    made by ``matrix_trace`` the evaluator peels each distinct argument
    once and subtracts its sub-form once per copy.  On runs of equal
    arguments every route (Newton's identities on one argument, the
    trace's block sum, the peel) equals the literal recursion, in value
    and in type, and ``determinant`` makes a pinned, small number of
    ``value`` calls."""

    @pytest.mark.parametrize("case", ["rational", "fractions", "mod:7",
                                      "mod:101", "corner", "s3"])
    def test_runs_equal_the_literal_recursion(self, case, s3):
        f, (x, y, z) = _peel_case(case, s3)
        assert len({x, y, z}) == 3
        top = 6 if case == "fractions" else 7
        runs = [(x,) * n for n in range(3, top + 1)]
        if case != "corner":  # see test_corner_values_are_pinned
            runs += [(x, x, y, y, z), (x, y, y, y)]
        seen = []
        for args in runs:
            got, want = recursive_form(f, args), literal_form(f, args)
            assert got == want and type(got) is type(want), (case, args)
            seen.append(got)
        assert any(seen), case

    def test_corner_values_are_pinned(self):
        # the non-central corner's literal value depends on the order, so
        # these pin the values of the recursion without the peel
        x, y, z = rand_mats(801, 3, bound=3)
        assert recursive_form(_CORNER, (x, x, y, y, z)) == -1606
        assert recursive_form(_CORNER, (x, y, y, y)) == -312
        assert recursive_form(_CORNER, (z, y, z, x, z)) == 8835

    @pytest.mark.parametrize("d,calls,traces", [
        pytest.param(4, 6, 4, id="4-3"), pytest.param(5, 10, 6, id="5-7"),
        pytest.param(6, 15, 8, id="6-14"), pytest.param(7, 21, 10, id="7-21")])
    def test_determinant_value_calls(self, monkeypatch, d, calls, traces):
        # form_k(x, .., x) for k = 3..d is one call that reads the k - 1
        # sub-forms form_{k-1} .. form_1 (memoized from 3 on), one kernel
        # product x^(k-1) and one pair trace f(x^k), and one more pair
        # trace for its form_2: d(d - 1)/2 calls, d - 2 products and
        # 2(d - 2) pair traces
        x = random_matrix(substream(5, d), QQ, d, 5)
        count = []
        value = _FormEvaluator.value

        def counted(self, key):
            count.append(key)
            return value(self, key)

        monkeypatch.setattr(_FormEvaluator, "value", counted)
        made, pairs = _spy_kernels(monkeypatch)
        assert determinant(matrix_trace(QQ, d), x) == leibniz_det(x)
        assert len(count) == calls
        assert len(made) == d - 2 and len(set(made)) == d - 2
        assert len(pairs) == traces
        assert {b for _, b in made} == {x.rows}

    @pytest.mark.parametrize("shape", ["x4y", "x3y3", "x4y2"])
    @pytest.mark.parametrize("case", ["rational", "mod:7", "C6"])
    def test_mixed_runs_equal_the_oracles(self, case, shape):
        # two arguments, one repeated 3 or 4 times, in both element
        # orders: under the regular trace the peel of mixed keys reaches
        # the sub-key of a repeated argument (``e == prev``) and, under
        # it, the key of x alone; under the trace the block sum takes
        # them.  The trace on M_6 and the regular trace of C_6 are of
        # dimension 6, so forms of 5 and 6 arguments are not identically 0
        if case == "C6":
            c6 = GroupTable.cyclic(6)
            f = regular_trace(c6, QQ)
            rng = substream(820, 0)
            x, y = (GroupAlgebraElement(
                c6, QQ, [rng.randint(-2, 2) for _ in range(6)])
                for _ in range(2))
        else:
            ring = ring_from_spec(case)
            f = matrix_trace(ring, 6)
            x, y = rand_mats(822, 2, ring=ring, size=6, bound=3)
        reps = {"x4y": (4, 1), "x3y3": (3, 3), "x4y2": (4, 2)}[shape]
        seen = []
        for a, b in ((x, y), (y, x)):
            args = (a,) * reps[0] + (b,) * reps[1]
            got = recursive_form(f, args)
            for want in (literal_form(f, args), cycle_sum_form(f, args)):
                assert got == want and type(got) is type(want), args
            seen.append(got)
        assert all(seen)


def _distinct_mats(spec, n):
    """``matrix_trace`` of a ring (not declared a pseudocharacter, as 7!
    is 0 mod 7) and n distinct n x n matrices, so that their form_n does
    not vanish."""
    if spec == "fractions":
        f, mats = _distinct_mats("rational", n)
        return f, [m.scale(Fraction(1, 2)) for m in mats]
    ring = ring_from_spec(spec)
    mats = rand_mats(830 + n, n, ring=ring, size=n, bound=2)
    assert len(set(mats)) == n
    return matrix_trace(ring, n, pseudocharacter=False), mats


class TestCycleBlocks:
    """Under ``matrix_trace``'s f a form of three or more arguments, not
    all one, is summed over the blocks of the cycle through its last
    argument, not peeled.  Its values equal the literal recursion's and
    the cycle sum's, in value and in type."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("spec", ["rational", "fractions", "mod:7",
                                      "mod:101"])
    def test_three_to_five_equal_the_oracles(self, spec, n):
        # distinct, one id twice, and (from n = 4) two ids twice: a
        # repeated id is one more position of the sum
        f, args = _distinct_mats(spec, n)
        runs = [args, args[:-1] + args[:1]]
        if n >= 4:
            runs.append(args[:n - 2] + args[:2])
        seen = []
        for run in runs:
            got = recursive_form(f, run)
            for oracle in (literal_form, cycle_sum_form):
                want = oracle(f, run)
                assert got == want and type(got) is type(want), (n, run)
            seen.append(got)
        # a value mod 7 is 0 one time in seven; no other value is
        assert any(seen) and (spec == "mod:7" or all(seen))

    @pytest.mark.parametrize("spec", ["rational", "fractions", "mod:7",
                                      "mod:101"])
    def test_six_equal_the_oracles(self, spec):
        f, args = _distinct_mats(spec, 6)
        got = recursive_form(f, args)
        # the cycle sum's Fraction products take seconds: literal only
        oracles = (literal_form,) + (
            () if spec == "fractions" else (cycle_sum_form,))
        for oracle in oracles:
            want = oracle(f, args)
            assert got == want and type(got) is type(want)
        assert got != 0

    @pytest.mark.parametrize("spec", ["rational", "mod:7", "mod:101"])
    def test_seven_past_the_unrolled_kernels(self, spec):
        # 7 x 7 matrices: products and pair traces are ring.dot's, sums
        # the loop over the cells
        f, args = _distinct_mats(spec, 7)
        assert args[0].n > elements._UNROLLED
        got = recursive_form(f, args)
        for want in (literal_form(f, args), cycle_sum_form(f, args)):
            assert got == want and type(got) is type(want)
        assert got != 0

    def test_eight_equal_the_literal_recursion(self):
        f, args = _distinct_mats("mod:101", 8)
        got = recursive_form(f, args)
        assert got == literal_form(f, args) and got != 0

    def test_six_make_75_products_and_57_pair_traces(self, monkeypatch):
        # P(T) over the 31 nonempty sets of the first 5 arguments, |T|
        # products each past |T| = 1: 5 * 16 - 5 = 75; one pair trace per
        # set of two or more of the 6 positions: 64 - 6 - 1 = 57
        made, pairs = _spy_kernels(monkeypatch)
        f, args = _distinct_mats("rational", 6)
        assert recursive_form(f, args) == cycle_sum_form(f, args)
        assert len(made) == 75 and len(pairs) == 57

    @pytest.mark.parametrize("shape,calls", [
        pytest.param("distinct-6", 1, id="distinct-6"),
        pytest.param("distinct-3", 1, id="distinct-3"),
        pytest.param("repeated", 1, id="repeated"),
        pytest.param("one-argument", 0, id="one-argument"),
        pytest.param("element-path", 0, id="element-path")])
    def test_runs_on_trace_keys_not_of_one_argument(self, monkeypatch,
                                                    shape, calls):
        # the top key only: the sum memoizes no sub-form.  One argument
        # repeated takes Newton's identities, and an f not made by
        # matrix_trace may not be linear and keeps the element path
        seen = []
        blocks = _FormEvaluator.blocks

        def counted(self, key):
            seen.append(key)
            return blocks(self, key)

        monkeypatch.setattr(_FormEvaluator, "blocks", counted)
        f, args = _distinct_mats("mod:101", 6)
        if shape == "distinct-3":
            args = args[:3]
        elif shape == "repeated":
            args[1] = args[0]
        elif shape == "one-argument":
            args = args[:1] * 6
        elif shape == "element-path":
            f = CentralFunction(lambda m: m.trace(), 6, f.ring)
        got = recursive_form(f, args)
        assert len(seen) == calls
        assert got == cycle_sum_form(f, args)
        assert got != 0


class TestRowPath:
    """For ``matrix_trace`` the evaluator works on row tuples through the
    (ring, size) kernels.  Its values equal, in value and in type, the
    literal recursion's, the cycle sum's, and those of the same recursion
    on ``Matrix`` elements (the trace as an f of no known shape)."""

    @pytest.mark.parametrize("spec,size", [("rational", 2), ("rational", 3),
                                           ("mod:101", 2)])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_oracles(self, spec, size, n):
        ring = ring_from_spec(spec)
        f = matrix_trace(ring, size)
        g = CentralFunction(lambda m: m.trace(), size, ring)
        for t in range(3):
            args = rand_mats(700 + 10 * n + t, n, ring=ring, size=size)
            args[::2] = args[:1] * len(args[::2])  # some repeats
            got = recursive_form(f, args)
            for want in (literal_form(f, args),
                         cycle_sum_form(f, args), recursive_form(g, args)):
                assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fraction_cells_equal_the_element_path(self, n):
        f = matrix_trace(QQ, 2)
        g = CentralFunction(lambda m: m.trace(), 2, QQ)
        half = Fraction(1, 2)
        args = [m.scale(half) for m in rand_mats(760 + n, n)]
        got = recursive_form(f, args)
        want = recursive_form(g, args)
        assert got == want and type(got) is type(want)
        assert got == literal_form(f, args)
        assert got == cycle_sum_form(f, args)

    @pytest.mark.parametrize("other", [
        Matrix(ModRing(7), [[1]]), Matrix(ModRing(7), [[1] * 3] * 3),
        Matrix(ModRing(11), [[1, 2], [3, 4]]), Matrix(QQ, [[1, 2], [3, 4]]),
        word("a")], ids=["size-1", "size-3", "mod11", "rational", "word"])
    def test_argument_mismatch_has_the_peer_message(self, other):
        f = matrix_trace(ModRing(7), 2)
        with pytest.raises(MismatchError) as peer:
            Matrix.identity(ModRing(7), 2) * other
        message = f"^{re.escape(str(peer.value))}$"
        with pytest.raises(MismatchError, match=message):
            recursive_form(f, (other,))
        with pytest.raises(MismatchError, match=message):
            form_on_sum(f, FormalSum.of(Multiset([other])))

    def test_equal_ring_objects_pass(self):
        # ModRing(7) built a second time is the one ModRing(7) object
        f = matrix_trace(ModRing(7), 2)
        x = Matrix(ModRing(7), [[1, 2], [3, 4]])
        assert x.ring is f.ring
        assert recursive_form(f, (x, x)) == ModRing(7).cell(25 - 29)

    @pytest.mark.parametrize("spec", ["rational", "mod:101"])
    def test_form_2_builds_no_product(self, spec):
        # f(a*b) comes from the pair-trace kernel, not from a built a*b
        ring = ring_from_spec(spec)
        a, b = rand_mats(790, 2, ring=ring)
        assert a != b
        ev = _FormEvaluator(matrix_trace(ring, 2))
        got = ev.form((a, b))
        assert sorted(ev.elems) == sorted((a.rows, b.rows))
        assert got == literal_form(matrix_trace(ring, 2), (a, b))


class TestDegreeProduct:
    def test_dimension_one_is_multiplicativity(self):
        f = matrix_trace(QQ, 1)
        x, y = rand_mats(410, 2, size=1)
        lhs, rhs, ok = degree_product_check(f, (x,), (y,))
        assert ok and lhs == f(x) * f(y) and rhs == f(x * y)

    @pytest.mark.parametrize("spec", ["rational", "mod:7"])
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_subset_sum_is_the_permutation_sum(self, spec, d):
        # from d = 4 on the rhs is Ryser's sum over 2^d - 1 column sets;
        # it equals the sum of d! forms over the permutations, in value
        # and type, and both equal the lhs
        ring = ring_from_spec(spec)
        f = matrix_trace(ring, d)
        mats = rand_mats(890 + d, 2 * d, ring=ring, size=d, bound=3)
        xs, ys = mats[:d], mats[d:]
        ev = _FormEvaluator(f)
        want = ring.cell(sum(
            ev.form([x * ys[j] for x, j in zip(xs, perm)])
            for perm in permutations(range(d))))
        lhs, rhs, ok = degree_product_check(f, xs, ys)
        assert rhs == want and type(rhs) is type(want)
        assert ok and rhs != 0

    @pytest.mark.parametrize("case", ["necklace", "trace-squared"])
    def test_any_other_f_sums_the_permutations(self, case):
        # an f not made by matrix_trace may have elements without + (words)
        # or be nonlinear (trace squared, whose form is not multilinear):
        # at d = 4 the rhs is still the sum of 4! forms over permutations
        d = 4
        if case == "necklace":
            f = CentralFunction(necklace_function()._evaluate, d, QPOLY)
            xs = [word(w) for w in ("a", "b", "a*b", "c")]
            ys = [word(w) for w in ("b", "a*c", "c", "b*b")]
        else:
            f = CentralFunction(lambda m: m.trace() * m.trace(), d, QQ)
            mats = rand_mats(898, 2 * d, size=2, bound=3)
            xs, ys = mats[:d], mats[d:]
        ev = _FormEvaluator(f)
        want = f.ring.cell(sum(
            (ev.form([x * ys[j] for x, j in zip(xs, perm)])
             for perm in permutations(range(d))), f.ring.zero()))
        _, rhs, _ = degree_product_check(f, xs, ys)
        assert rhs == want and rhs != 0

    @pytest.mark.parametrize("ring,d", [(QQ, 2), (QQ, 3), (ModRing(7), 3)])
    def test_holds_for_traces(self, ring, d):
        f = matrix_trace(ring, d)
        for t in range(15):
            mats = rand_mats(420 + t, 2 * d, ring=ring, size=d, bound=4)
            lhs, rhs, ok = degree_product_check(f, mats[:d], mats[d:])
            assert ok, (t, lhs, rhs)

    def test_negative_control_wrong_dimension(self):
        g = matrix_trace(QQ, 2, 1)
        x = Matrix(QQ, [[1, 2], [3, 4]])
        y = Matrix(QQ, [[0, 1], [1, 0]])
        _, _, ok = degree_product_check(g, (x,), (y,))
        assert not ok

    def test_nonbijection_summands_vanish(self):
        # with |x| = |y| = d, every summand of x X y of cardinality > d
        # comes from a non-full partial bijection; a dimension-d
        # pseudocharacter kills exactly those, leaving the permutation sum
        f = matrix_trace(QQ, 2)
        for t in range(10):
            mats = rand_mats(600 + t, 4, bound=4)
            x, y = Multiset(mats[:2]), Multiset(mats[2:])
            product = multiset_product(x, y)
            tail = FormalSum({ms: c for ms, c in product.terms()
                              if len(ms) > 2})
            assert form_on_sum(f, tail) == 0

    def test_tuple_length_enforced(self):
        f = matrix_trace(QQ, 2)
        x = Matrix.identity(QQ, 2)
        with pytest.raises(ValueError):
            degree_product_check(f, (x,), (x, x))

    def test_cap(self):
        """A declared dimension of 8 sums over 8! permutations: refused."""
        f = matrix_trace(QQ, 2, 8)
        xs = (Matrix.identity(QQ, 2),) * 8
        with pytest.raises(CapExceededError, match="^size 8 exceeds the "
                           "permutation cap of 7$"):
            degree_product_check(f, xs, xs)


class TestDeterminant:
    def test_dimension_one_is_f_itself(self):
        f = matrix_trace(QQ, 1)
        x = rand_mats(430, 1, size=1)[0]
        assert determinant(f, x) == f(x)

    def test_two_by_two_closed_form(self):
        f = matrix_trace(QQ, 2)
        for t in range(25):
            x = rand_mats(440 + t, 1)[0]
            expected = Fraction(f(x) * f(x) - f(x * x), 2)
            assert determinant(f, x) == expected
            assert determinant(f, x) == leibniz_det(x)

    def test_identity(self):
        f = matrix_trace(QQ, 2)
        assert determinant(f, Matrix.identity(QQ, 2)) == 1

    def test_homogeneity(self):
        for d in (1, 2, 3):
            f = matrix_trace(QQ, d)
            x = rand_mats(450 + d, 1, size=d)[0]
            for a in (Fraction(2), Fraction(-3, 2)):
                assert determinant(f, x.scale(a)) == a**d * determinant(f, x)

    def test_multiplicativity(self):
        for ring, d in ((QQ, 2), (ModRing(7), 3)):
            f = matrix_trace(ring, d)
            for t in range(15):
                x, y = rand_mats(460 + t, 2, ring=ring, size=d, bound=4)
                lhs, rhs, ok = multiplicativity_check(f, x, y)
                assert ok and lhs == leibniz_det(x * y)

    def test_multiplicativity_with_identity(self):
        f = matrix_trace(QQ, 2)
        x = rand_mats(470, 1)[0]
        eye = Matrix.identity(QQ, 2)
        _, _, ok = multiplicativity_check(f, x, eye)
        assert ok
        assert determinant(f, eye) == 1

    @pytest.mark.parametrize("fn", [determinant, char_poly,
                                    char_poly_interpolated])
    def test_cap_comes_before_the_factorial(self, monkeypatch, fn):
        """A huge dimension is refused by the recursion cap before d! is
        computed."""
        def boom(self, d):
            raise AssertionError(f"{d}! was computed")

        monkeypatch.setattr(RationalRing, "inverse_of_factorial", boom)
        f = matrix_trace(QQ, 2, 100_000, pseudocharacter=False)
        with pytest.raises(CapExceededError, match="recursion cap of 8"):
            fn(f, Matrix(QQ, [[1, 2], [3, 4]]))

    def test_requires_invertible_factorial(self):
        with pytest.raises(NotInvertibleError):
            matrix_trace(ModRing(6), 3)
        f = matrix_trace(ModRing(6), 3, pseudocharacter=False)
        x = Matrix.identity(ModRing(6), 3)
        with pytest.raises(NotInvertibleError):
            determinant(f, x)


class TestVanishing:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_forms_above_dimension_vanish(self, d):
        f = matrix_trace(QQ, d)
        for k in range(d + 1, d + 3):
            for t in range(10):
                args = tuple(rand_mats(480 + 10 * d + t, k, size=d, bound=4))
                assert recursive_form(f, args) == 0

    def test_repeated_argument_case_cross_checked(self):
        # form_3(x, x, x) = 0 on 2x2: the cycle sum agrees on the zero
        f = matrix_trace(QQ, 2)
        for t in range(25):
            x = rand_mats(485 + t, 1)[0]
            assert recursive_form(f, (x, x, x)) == 0
            assert cycle_sum_form(f, (x, x, x)) == 0


class TestIdentityPadding:
    def test_single_argument(self):
        f = matrix_trace(QQ, 2)
        x = rand_mats(490, 1)[0]
        lhs, rhs, ok = identity_padding_check(f, x, 1)
        assert ok and lhs == f(x)

    def test_two_arguments(self):
        f = matrix_trace(QQ, 2)
        x = rand_mats(491, 1)[0]
        lhs, rhs, ok = identity_padding_check(f, x, 2)
        assert ok and lhs == f(x) * (2 - 1)

    def test_three_arguments_vanish_on_m2(self):
        f = matrix_trace(QQ, 2)
        x = rand_mats(492, 1)[0]
        lhs, rhs, ok = identity_padding_check(f, x, 3)
        assert ok and lhs == 0 and rhs == 0

    def test_on_group_algebra(self, s3):
        f = regular_trace(s3, QQ)
        rng = substream(79, 0)
        x = GroupAlgebraElement(s3, QQ,
                                [rng.randint(-2, 2) for _ in range(6)])
        for n in (1, 2, 3):
            _, _, ok = identity_padding_check(f, x, n)
            assert ok

    def test_holds_for_nonlinear_central_f(self):
        f = CentralFunction(lambda m: m.trace() * m.trace(), 2, QQ)
        x = rand_mats(493, 1)[0]
        for n in (1, 2, 3, 4):
            _, _, ok = identity_padding_check(f, x, n)
            assert ok

    def test_words_have_no_unit(self):
        f = necklace_function()
        with pytest.raises(UnitlessError):
            identity_padding_check(f, word("a"), 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_at_least_one_argument(self, n):
        f = matrix_trace(QQ, 2)
        x = rand_mats(494, 1)[0]
        with pytest.raises(ValueError, match="n >= 1"):
            identity_padding_check(f, x, n)


class TestCharPoly:
    def test_dimension_one(self):
        f = matrix_trace(QQ, 1)
        x = Matrix(QQ, [[7]])
        cp = char_poly(f, x)
        assert cp.coefficients == (-7, 1)
        assert cp.render() == "(1)*t + (-7)"

    def test_two_by_two_closed_form(self):
        f = matrix_trace(QQ, 2)
        x = Matrix(QQ, [[1, 2], [3, 4]])
        cp = char_poly(f, x)
        # t^2 - (a+d) t + (ad - bc)
        assert list(cp.coefficients) == [-2, -5, 1]
        assert cp.is_monic()
        assert cp.trace() == 5 == f(x)

    def test_two_by_two_fully_symbolic(self):
        # with polynomial entries the closed form is literal:
        # t^2 - (a+d) t + (ad - bc)
        a, b, c, d = (Poly.variable(v) for v in "abcd")
        x = Matrix(QPOLY, [[a, b], [c, d]])
        f = matrix_trace(QPOLY, 2)
        cp = char_poly(f, x)
        assert cp.coefficients[2] == Poly.constant(1)
        assert cp.coefficients[1] == -(a + d)
        assert cp.coefficients[0] == a * d - b * c

    def test_constant_term_is_signed_determinant(self):
        for d in (1, 2, 3):
            f = matrix_trace(QQ, d)
            x = rand_mats(500 + d, 1, size=d)[0]
            cp = char_poly(f, x)
            assert cp.coefficients[0] == (-1) ** d * determinant(f, x)
            assert cp.coefficients[0] == determinant(f, -x)

    def test_monic_for_all_dims(self):
        for ring in (QQ, ModRing(101)):
            for d in (1, 2, 3):
                f = matrix_trace(ring, d)
                x = rand_mats(510 + d, 1, ring=ring, size=d)[0]
                assert char_poly(f, x).is_monic()

    def test_interpolated_path_agrees(self):
        """The Newton-form interpolation gives ``char_poly``'s coefficients,
        each of the same Python type: over Q and mod:101 up to d = 6, over
        mod:5 in the paper's regime (d! invertible, (2d)! not), on
        ``Fraction`` cells, on generic polynomial matrices and for traces
        declared with the wrong dimension."""
        def agree(f, x):
            want, got = char_poly(f, x), char_poly_interpolated(f, x)
            assert got == want
            assert ([type(c) for c in got.coefficients]
                    == [type(c) for c in want.coefficients])
        cells = [(ring, d) for ring in (QQ, ModRing(7)) for d in (1, 2, 3)]
        cells += [(ring, d) for ring in (QQ, ModRing(101))
                  for d in (4, 5, 6)]
        cells += [(ModRing(5), 3), (ModRing(5), 4)]
        for ring, d in cells:
            f = matrix_trace(ring, d)
            for t in range(5 if d <= 4 else 2):
                agree(f, rand_mats(520 + 10 * d + t, 1, ring=ring, size=d)[0])
        # at d = 1, (1!)^-1 is the int 1 and char_poly's t coefficient
        # stays an int, so Fraction cells start at d = 2
        for d in (2, 3, 4):
            agree(matrix_trace(QQ, d), Matrix(QQ, [
                [Fraction(i - 2 * j + 1, 3 + i) for j in range(d)]
                for i in range(d)]))
        for d in (1, 2, 3):
            x = Matrix(QPOLY, [[Poly.variable(f"x{i}{j}") for j in range(d)]
                               for i in range(d)])
            agree(matrix_trace(QPOLY, d), x)
        for ring in (QQ, ModRing(7)):
            for dim in (1, 3):
                for x in rand_mats(600 + dim, 3, ring=ring):
                    agree(matrix_trace(ring, 2, dim), x)

    def test_equals_its_literal_definition(self):
        """Coefficient k is (d!)^-1 * C(d,k) * form_d(-x, .., -x, 1, .., 1)
        with k units, each form by ``literal_form``, in value and type:
        on 2 x 2 traces declared with dimension 1..4 (f(1) = 2 differs
        from d but at d = 2), on honest traces up to d = 4, over Q, mod 7
        and mod 5, on a ``Fraction`` matrix, and on the regular trace of
        C_3 (the evaluator's element path)."""
        def literal(f, x):
            d, ring = f.dim, f.ring
            inv, one = ring.inverse_of_factorial(d), x.one()
            return tuple(ring.cell(inv * (math.comb(d, k) * literal_form(
                f, (-x,) * (d - k) + (one,) * k))) for k in range(d + 1))

        def agree(f, x):
            got, want = char_poly(f, x).coefficients, literal(f, x)
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]
        for ring in (QQ, ModRing(7), ModRing(5)):
            for dim in (1, 2, 3, 4):
                for x in rand_mats(640 + dim, 3, ring=ring):
                    agree(matrix_trace(ring, 2, dim), x)
            for d in (1, 3, 4):
                x = rand_mats(650 + d, 1, ring=ring, size=d)[0]
                agree(matrix_trace(ring, d), x)
        agree(matrix_trace(QQ, 2), Matrix(QQ, [[Fraction(1, 2), -3],
                                               [Fraction(2, 3), 5]]))
        c3 = GroupTable.cyclic(3)
        rng = substream(660, 0)
        for ring in (QQ, ModRing(7)):
            for _ in range(3):
                agree(regular_trace(c3, ring), GroupAlgebraElement(
                    c3, ring, [rng.randint(-2, 2) for _ in range(3)]))

    @pytest.mark.parametrize("case", ["rational", "mod:101", "C6"])
    def test_makes_the_products_of_one_determinant(self, monkeypatch, case):
        """At d = 6, ``char_poly(f, x)`` multiplies exactly the element
        pairs that ``determinant(f, -x)`` multiplies, counted at the
        product kernel (matrices) or at ``*`` (group algebra)."""
        made = []

        def counted(mul):
            def spy(a, b):
                made.append((a, b))
                return mul(a, b)
            return spy

        if case == "C6":
            c6 = GroupTable.cyclic(6)
            f = regular_trace(c6, QQ)
            x = GroupAlgebraElement(c6, QQ, [1, -2, 0, 3, 1, -1])
            monkeypatch.setattr(pseudochar, "mul", counted(pseudochar.mul))
        else:
            ring = ring_from_spec(case)
            f = matrix_trace(ring, 6)
            x = rand_mats(670, 1, ring=ring, size=6)[0]
            kernels = pseudochar._kernels

            def spied_kernels(ring, size):
                mul, f_cell, pair_trace, add = kernels(ring, size)
                return counted(mul), f_cell, pair_trace, add
            monkeypatch.setattr(pseudochar, "_kernels", spied_kernels)
        determinant(f, -x)
        det_products = sorted(made)
        made.clear()
        char_poly(f, x)
        assert det_products and sorted(made) == det_products

    @pytest.mark.parametrize("case", ["C3", "rational"])
    def test_leaves_no_reference_cycle(self, case):
        # the evaluator is freed by reference counting when the call
        # returns: nothing it builds refers back to it
        if case == "C3":
            c3 = GroupTable.cyclic(3)
            f = regular_trace(c3, QQ)
            x = GroupAlgebraElement(c3, QQ, [1, -2, 3])
        else:
            f, x = matrix_trace(QQ, 2), Matrix(QQ, [[1, 2], [3, 4]])
        want = char_poly(f, x)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                assert char_poly(f, x) == want
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_trace_roundtrip_report(self):
        f = matrix_trace(QQ, 3)
        samples = rand_mats(530, 6, size=3) + [
            Matrix.identity(QQ, 3), Matrix.zero(QQ, 3)]
        for x in samples:
            cp = char_poly(f, x)
            assert cp.is_monic() and cp.trace() == f(x)
        eye_cp = char_poly(f, Matrix.identity(QQ, 3))
        assert eye_cp.trace() == 3
        zero_cp = char_poly(f, Matrix.zero(QQ, 3))
        assert zero_cp.trace() == 0

    def test_charpoly_equality_type(self):
        f = matrix_trace(QQ, 2)
        cp = char_poly(f, Matrix.identity(QQ, 2))
        assert cp != CharPoly(QQ, (1, 1))  # different degree

    def test_degree_zero_has_no_trace(self):
        with pytest.raises(ValueError, match="^degree-0 polynomial has no "
                           "trace coefficient$"):
            CharPoly(QQ, (1,)).trace()


class TestPseudocharacterReport:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trace_is_a_pseudocharacter(self, d):
        f = matrix_trace(QQ, d)
        report = check_pseudocharacter(f, rand_mats(540 + d, 6, size=d))
        assert report.passed, report.render()

    def test_trace_mod_7(self):
        f = matrix_trace(ModRing(7), 2)
        report = check_pseudocharacter(
            f, rand_mats(550, 6, ring=ModRing(7), size=2, bound=6))
        assert report.passed, report.render()

    def test_wrong_dimension_fails_unit_value(self):
        f = matrix_trace(QQ, 2, 3, pseudocharacter=False)
        report = check_pseudocharacter(f, rand_mats(560, 4))
        assert not report.passed
        names = {name for name, _, ok in report.entries if not ok}
        assert "unit-value" in names

    def test_factorial_not_invertible_is_a_failing_entry(self):
        """3! is not invertible mod 3: the entry fails and says so, and
        the report is still built."""
        ring = ModRing(3)
        f = matrix_trace(ring, 3, pseudocharacter=False)
        report = check_pseudocharacter(f, rand_mats(565, 3, ring=ring,
                                                    size=3))
        (entry,) = [e for e in report.entries
                    if e[0] == "factorial-invertible"]
        assert entry == ("factorial-invertible", "3! not invertible mod 3",
                         False)
        assert not report.passed
        assert ("[FAIL] factorial-invertible: 3! not invertible mod 3"
                in report.render().splitlines())

    def test_needs_a_sample(self):
        with pytest.raises(ValueError,
                           match="^need at least one sample element$"):
            check_pseudocharacter(matrix_trace(QQ, 2), [])

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError,
                           match="^dimension must be a positive integer$"):
            CentralFunction(lambda m: m.trace(), 0, QQ)

    @pytest.mark.parametrize("dim", [2.5, True], ids=["float", "bool"])
    def test_dimension_must_be_an_int(self, dim):
        with pytest.raises(ValueError,
                           match="^dimension must be a positive integer$"):
            CentralFunction(lambda m: m.trace(), dim, QQ)

    def test_matrix_trace_refuses_a_negative_size(self):
        with pytest.raises(ValueError,
                           match="^matrix must be square and nonempty$"):
            matrix_trace(QQ, -2, 1)

    def test_matrix_trace_refuses_a_float_size(self):
        # (QQ, 2.0) and (QQ, 2) are equal cache keys of the kernels: the
        # size is refused before any kernel is looked up, whether the
        # 2 x 2 ones exist or not
        elements._kernels.cache_clear()
        x = Matrix(QQ, [[1, 2], [3, 4]])
        message = r"^matrix size must be an int, got 2\.0$"
        with pytest.raises(ValueError, match=message):
            recursive_form(matrix_trace(QQ, 2.0, 2), (x, x))
        assert elements._kernels.cache_info().currsize == 0
        assert x * x == Matrix(QQ, [[7, 10], [15, 22]])
        assert elements._kernels.cache_info().currsize == 1
        assert elements._kernels(QQ, 2.0) is elements._kernels(QQ, 2)
        assert elements._kernels.cache_info().currsize == 1
        with pytest.raises(ValueError, match=message):
            recursive_form(matrix_trace(QQ, 2.0, 2), (x, x))

    def test_noncentral_function_detected(self):
        g = CentralFunction(lambda m: m.entry(0, 1), 2, QQ, name="corner")
        report = check_pseudocharacter(g, rand_mats(570, 5))
        assert not report.passed
        assert "central" in {name for name, _, ok in report.entries
                             if not ok}

    def test_regular_trace_on_cyclic_groups(self):
        for n in (2, 3):
            group = GroupTable.cyclic(n)
            f = regular_trace(group, QQ)
            rng = substream(83, n)
            samples = [
                GroupAlgebraElement(group, QQ,
                                    [rng.randint(-2, 2) for _ in range(n)])
                for _ in range(4)]
            report = check_pseudocharacter(f, samples)
            assert report.passed, report.render()

    def test_regular_trace_is_central_on_s3(self, s3):
        f = regular_trace(s3, QQ)
        rng = substream(89, 0)
        for _ in range(25):
            a = GroupAlgebraElement(s3, QQ,
                                    [rng.randint(-2, 2) for _ in range(6)])
            b = GroupAlgebraElement(s3, QQ,
                                    [rng.randint(-2, 2) for _ in range(6)])
            assert f(a * b) == f(b * a)


def test_eager_factorial_check_at_construction():
    with pytest.raises(NotInvertibleError):
        CentralFunction(lambda m: m.trace(), 3, ModRing(6),
                        pseudocharacter=True)
    # without the pseudocharacter flag construction is allowed
    CentralFunction(lambda m: m.trace(), 3, ModRing(6))


def test_concurrent_evaluations_are_safe():
    from concurrent.futures import ThreadPoolExecutor
    f = matrix_trace(QQ, 2)
    args = tuple(rand_mats(590, 5))
    expected = recursive_form(f, args)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: recursive_form(f, args), range(32)))
    assert all(r == expected for r in results)


@pytest.mark.parametrize("m", [7, 25, 101])
def test_mod_m_scalars_are_canonical_ints(m):
    """Over mod:m a scalar is its canonical int: every public function
    that returns one returns a plain ``int`` in [0, m), so each reduces
    what it combines (d = 3, whose 3! is invertible for each m)."""
    ring = ModRing(m)
    f = matrix_trace(ring, 3)
    # f values that ring.cell accepts: ints past m, fractions
    g = CentralFunction(lambda a: a.trace() + m, 3, ring)
    h = CentralFunction(lambda a: Fraction(a.trace(), 2), 3, ring)
    c3 = GroupTable.cyclic(3)
    for t in range(5):
        x, y, z, w = rand_mats(900 + t, 4, ring=ring, size=3)
        cp = char_poly(f, x)
        results = {
            "recursive_form": (recursive_form(f, (x, y)),
                               recursive_form(f, (x, y, z))),
            "literal_form": literal_form(f, (x, y, z)),
            "cycle_sum_form": cycle_sum_form(f, (x, y, z)),
            "form_on_sum": form_on_sum(
                f, FormalSum.of(Multiset([x, y]), 3)
                + FormalSum.of(Multiset([z]), -2)),
            "determinant": determinant(f, x),
            "char_poly": cp.coefficients,
            "char_poly_interpolated":
                char_poly_interpolated(f, x).coefficients,
            "char_poly_leibniz": char_poly_leibniz(x),
            "leibniz_det": leibniz_det(x),
            "CharPoly.trace": cp.trace(),
            "Matrix.trace": x.trace(),
            "Matrix.entry": x.entry(0, 1),
            "inverse_of_factorial": ring.inverse_of_factorial(3),
            "regular_trace": regular_trace(c3, ring)(
                GroupAlgebraElement(c3, ring, [m - 1 - t, 1, 2])),
            "product_formula_check": product_formula_check(
                f, Multiset([x, y]), Multiset([z]))[:2],
            "degree_product_check": degree_product_check(
                f, (x, y, z), (w, x * y, z))[:2],
            "multiplicativity_check": multiplicativity_check(f, x, y)[:2],
            # rhs -3 * 2 * 1 before reduction
            "identity_padding_check": identity_padding_check(
                f, -x.one(), 3)[:2],
            "forms of g and h": tuple(
                form(fn, args) for fn in (g, h)
                for form in (recursive_form, literal_form, cycle_sum_form)
                for args in ((x,), (x, y))),
        }
        for name, got in results.items():
            for value in got if isinstance(got, tuple) else (got,):
                assert type(value) is int and 0 <= value < m, (name, value)


def test_rational_integral_scalars_are_ints():
    """Over the rationals an integral scalar is a plain ``int``: every
    public function returns ``QQ.cell``'s canonical form, never
    ``Fraction(n, 1)``, also where fractions meet in an integer."""
    f = matrix_trace(QQ, 2)
    x, y = Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[0, 1], [1, 0]])
    half = Matrix(QQ, [[Fraction(1, 2), 3], [1, Fraction(3, 2)]])
    singular = Matrix(QQ, [[Fraction(1, 2), 1], [1, 2]])  # det 0, trace 5/2
    cp = char_poly(f, x)
    results = {
        "determinant": (determinant(f, x), -2),
        "determinant of fractions": (determinant(f, singular), 0),
        "char_poly": (cp.coefficients, (-2, -5, 1)),
        "char_poly_interpolated":
            (char_poly_interpolated(f, x).coefficients, (-2, -5, 1)),
        "char_poly of fractions":
            (char_poly(f, singular).coefficients[0], 0),
        "CharPoly.trace": (cp.trace(), 5),
        "leibniz_det": (leibniz_det(x), -2),
        "Matrix.trace": (half.trace(), 2),
        "matrix_trace": (f(half), 2),
        "recursive_form": (recursive_form(f, (singular, singular)), 0),
        "multiplicativity_check":
            (multiplicativity_check(f, x, y)[:2], (2, 2)),
        "degree_product_check": (
            degree_product_check(f, (x, y), (y, x))[:2], (25, 25)),
    }
    for name, (got, want) in results.items():
        got, want = ((got, want) if isinstance(got, tuple)
                     else ((got,), (want,)))
        assert got == want, name
        assert all(type(v) is int for v in got), (name, got)
