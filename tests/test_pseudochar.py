"""Recursive forms, the cycle-sum oracle, determinants, char polys."""

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
                       form_on_sum, identity_padding_check, matrix_trace,
                       multiset_product, multiplicativity_check,
                       product_formula_check, recursive_form, regular_trace,
                       ring_from_spec, word)
from pseudodet.verify import _CORNER, leibniz_det, random_matrix, substream


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
        got = recursive_form(f, (word("x1"), word("x2")), memoized=False)
        expected = form2_oracle(f, word("x1"), word("x2"))
        assert got == expected

    def test_formal_footnote_degree_3(self):
        f = symbolic_word_function()
        args = (word("x1"), word("x2"), word("x3"))
        assert recursive_form(f, args, memoized=False) == form3_oracle(f, *args)

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
            assert recursive_form(f, args) == \
                recursive_form(f, args, memoized=False)

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
            recursive_form(f, (eye,) * 9, memoized=False)

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
            baseline = recursive_form(f, args, memoized=False)
            for perm in permutations(range(n)):
                shuffled = tuple(args[i] for i in perm)
                assert recursive_form(f, shuffled, memoized=False) == baseline

    def test_word_forms_symmetric_for_central_f(self):
        f = necklace_function()
        args = (word("a"), word("b"), word("a*b"))
        baseline = recursive_form(f, args, memoized=False)
        for perm in permutations(range(3)):
            shuffled = tuple(args[i] for i in perm)
            assert recursive_form(f, shuffled, memoized=False) == baseline

    def test_group_algebra_forms_symmetric(self, s3):
        f = regular_trace(s3, QQ)
        rng = substream(71, 0)
        args = tuple(
            GroupAlgebraElement(s3, QQ, [rng.randint(-2, 2) for _ in range(6)])
            for _ in range(3))
        baseline = recursive_form(f, args, memoized=False)
        for perm in permutations(range(3)):
            shuffled = tuple(args[i] for i in perm)
            assert recursive_form(f, shuffled, memoized=False) == baseline

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
            assert recursive_form(f, shuffled, memoized=False) == baseline


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


class TestFormOnSum:
    def test_empty_multiset_gives_one(self):
        f = matrix_trace(QQ, 2)
        assert form_on_sum(f, FormalSum.unit()) == 1
        assert form_on_sum(f, FormalSum.of(Multiset.empty(), 5)) == 5

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
            f, Multiset.empty(), Multiset.empty())
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
        value = (recursive_form(f, ms.entries, memoized=False) if len(ms)
                 else f.ring.one())
        total = total + coeff * value
    return total


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
        assert got == recursive_form(f, args, memoized=False)

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
        assert rhs == (recursive_form(f, x.entries, memoized=False)
                       * recursive_form(f, y.entries, memoized=False))

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
            inv * (math.comb(d, k)
                   * recursive_form(f, args[k], memoized=False))
            for k in range(d + 1))


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
    if case in ("rational", "mod:7", "mod:101"):
        ring = QQ if case == "rational" else ModRing(int(case[4:]))
        return matrix_trace(ring, 2), rand_mats(661, 6, ring=ring)
    if case == "fractions":
        return matrix_trace(QQ, 2), [
            Matrix(QQ, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(2)] for _ in range(2)])
            for _ in range(6)]
    if case == "poly":
        return matrix_trace(QPOLY, 2), [
            Matrix(QPOLY, [[Poly.variable(f"{v}{i}{j}") for j in range(2)]
                           for i in range(2)]) for v in "abcdef"]
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
        top = 3 if case == "poly" else 4
        for n in range(1, top + 1):
            # distinct, one repeat, all equal, and out of element order
            for args in (pool[:n], pool[:n - 1] + pool[:1], [pool[1]] * n,
                         pool[-n:][::-1]):
                got = recursive_form(f, args)
                want = recursive_form(f, args, memoized=False)
                assert got == want, (case, n)
                assert f.ring.render(got) == f.ring.render(want)

    def test_mod_values_are_residues(self):
        f = matrix_trace(ModRing(7), 2)
        for n in (1, 2, 3, 4):
            args = rand_mats(670 + n, n, ring=ModRing(7))
            got = recursive_form(f, args)
            assert got == recursive_form(f, args, memoized=False)
            assert got.modulus == 7 and 0 <= got.value < 7

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
            for want in (recursive_form(f, args, memoized=False),
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
        assert got == recursive_form(f, args, memoized=False)
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
        assert recursive_form(f, (x, x)) == ModRing(7).from_int(25 - 29)


class TestDegreeProduct:
    def test_dimension_one_is_multiplicativity(self):
        f = matrix_trace(QQ, 1)
        x, y = rand_mats(410, 2, size=1)
        lhs, rhs, ok = degree_product_check(f, (x,), (y,))
        assert ok and lhs == f(x) * f(y) and rhs == f(x * y)

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
        for ring in (QQ, ModRing(7)):
            for d in (1, 2, 3):
                f = matrix_trace(ring, d)
                for t in range(5):
                    x = rand_mats(520 + 10 * d + t, 1, ring=ring, size=d)[0]
                    assert char_poly(f, x) == char_poly_interpolated(f, x)
        for d in (2, 3):
            x = Matrix(QPOLY, [[Poly.variable(f"x{i}{j}") for j in range(d)]
                               for i in range(d)])
            f = matrix_trace(QPOLY, d)
            assert char_poly(f, x) == char_poly_interpolated(f, x)

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
        names = {e.name for e in report.failures()}
        assert "unit-value" in names

    def test_noncentral_function_detected(self):
        g = CentralFunction(lambda m: m.entry(0, 1), 2, QQ, name="corner")
        report = check_pseudocharacter(g, rand_mats(570, 5))
        assert not report.passed
        assert "central" in {e.name for e in report.failures()}

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
