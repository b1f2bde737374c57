"""The multiset ring: enumeration, products, functoriality, rendering."""

import re
from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest

from pseudodet import multisets
from pseudodet import (BudgetExceededError, FormalSum, GroupAlgebraElement,
                       GroupTable, LetterHom, Matrix,
                       MismatchError, ModRing, Multiset, QQ,
                       Word,
                       formal_product, multiset_product,
                       partial_bijection_count, partial_bijections,
                       product_along, word)
from pseudodet.rings import FrozenValue
from pseudodet.verify import random_matrix, random_word, substream


def letters(prefix, n):
    return Multiset(Word([f"{prefix}{i}"]) for i in range(1, n + 1))


def brute_force_partial_bijections(n, m):
    """Independent enumeration: all (I, J, alpha) triples, as frozensets of
    pairs.  Used as the oracle for both the count and the contents."""
    def subsets(universe):
        return chain.from_iterable(
            combinations(universe, k) for k in range(len(universe) + 1))

    found = set()
    for dom in subsets(range(1, n + 1)):
        for img in subsets(range(1, m + 1)):
            if len(dom) != len(img):
                continue
            for images in permutations(img):
                found.add(frozenset(zip(dom, images)))
    return found


class TestPartialBijections:
    def test_degenerate_counts(self):
        assert len(partial_bijections(0, 5)) == 1
        assert partial_bijections(0, 5)[0] == ()
        assert len(partial_bijections(5, 0)) == 1

    @pytest.mark.parametrize("n,m,count", [(2, 1, 3), (2, 2, 7), (3, 3, 34)])
    def test_known_counts(self, n, m, count):
        assert len(partial_bijections(n, m)) == count
        assert partial_bijection_count(n, m) == count

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("m", range(5))
    def test_against_brute_force(self, n, m):
        enumerated = {frozenset(pairs) for pairs in partial_bijections(n, m)}
        oracle = brute_force_partial_bijections(n, m)
        assert enumerated == oracle
        assert len(partial_bijections(n, m)) == len(oracle)
        assert partial_bijection_count(n, m) == len(oracle)

    def test_no_duplicates_and_deterministic(self):
        first = partial_bijections(3, 4)
        assert len(set(first)) == len(first)
        assert first == partial_bijections(3, 4)
        assert all(list(pairs) == sorted(pairs) for pairs in first)

    @pytest.mark.parametrize("n,m", [(-1, 2), (2, -1), (-1, -1)])
    def test_negative_shape_is_refused_before_planning(self, monkeypatch,
                                                        n, m):
        monkeypatch.setattr(multisets, "_PLANS", {})
        with pytest.raises(ValueError, match="n and m must be >= 0"):
            partial_bijections(n, m)
        assert (n, m) not in multisets._PLANS

    @pytest.mark.parametrize("n,m", [(-1, 3), (3, -1)])
    def test_negative_shape_has_no_count(self, n, m):
        with pytest.raises(ValueError, match="^n and m must be >= 0$"):
            partial_bijection_count(n, m)


class TestProductAlong:
    def test_empty_bijection_concatenates(self):
        x, y = letters("x", 2), letters("y", 3)
        assert product_along(x, y, ()) == Multiset(
            list(x.entries) + list(y.entries))

    def test_single_match(self):
        x, y = letters("x", 2), letters("y", 1)
        got = product_along(x, y, ((1, 1),))
        assert got == Multiset([word("x1*y1"), word("x2")])

    def test_crossed_match(self):
        x, z = letters("x", 2), letters("z", 2)
        got = product_along(x, z, ((1, 2), (2, 1)))
        assert got == Multiset([word("x1*z2"), word("x2*z1")])

    def test_pairs_in_any_order(self):
        x, z = letters("x", 3), letters("z", 2)
        assert product_along(x, z, ((3, 1), (1, 2))) == \
            product_along(x, z, ((1, 2), (3, 1)))

    def test_cardinality_law(self):
        x, y = letters("x", 3), letters("y", 2)
        for pairs in partial_bijections(3, 2):
            assert len(product_along(x, y, pairs)) == 3 + 2 - len(pairs)

    @pytest.mark.parametrize("pairs,bad", [
        (((1, 1), (1, 2)), "(1,2)"),
        (((1, 1), (2, 1)), "(2,1)"),
        (((1, 3),), "(1,3)"),
        (((0, 1),), "(0,1)"),
    ], ids=["repeated-i", "repeated-j", "j-out-of-range", "index-zero"])
    def test_refuses_a_non_bijection(self, pairs, bad):
        """Each i must lie in 1..|x| and each j in 1..|y|, none used
        twice; the first pair that breaks this is named."""
        with pytest.raises(ValueError, match=f"^pair {re.escape(bad)} is "
                           "out of range or repeats an index of a partial "
                           "bijection$"):
            product_along(letters("x", 2), letters("y", 2), pairs)

    @pytest.mark.parametrize("pairs,bad", [
        (((True, 1),), "(True,1)"),
        (((1.0, 1),), "(1.0,1)"),
        (((1, True),), "(1,True)"),
        (((1, 1.0),), "(1,1.0)"),
    ], ids=["bool-i", "float-i", "bool-j", "float-j"])
    def test_refuses_an_index_that_is_no_int(self, pairs, bad):
        """An index is a plain int: a bool is not taken as 0 or 1, and a
        float gets the same one-line refusal as any other bad pair."""
        with pytest.raises(ValueError, match=f"^pair {re.escape(bad)} is "
                           "out of range or repeats an index of a partial "
                           "bijection$"):
            product_along(letters("x", 2), letters("y", 2), pairs)

    def test_shape_mismatch(self):
        """A bijection is judged against the multisets passed: a pair of
        the 2 x 1 shape does not fit two singletons."""
        with pytest.raises(ValueError, match=r"^pair \(2,1\) is out of range"):
            product_along(letters("x", 1), letters("y", 1), ((2, 1),))


class TestMultisetProduct:
    def test_two_by_one_expansion(self):
        got = multiset_product(letters("x", 2), letters("y", 1))
        expected = FormalSum({
            Multiset([word("x1"), word("x2"), word("y1")]): 1,
            Multiset([word("x1*y1"), word("x2")]): 1,
            Multiset([word("x1"), word("x2*y1")]): 1,
        })
        assert got == expected

    def test_two_by_one_render_golden(self):
        got = multiset_product(letters("x", 2), letters("y", 1))
        assert got.render() == \
            "1*{x1,x2*y1} + 1*{x2,x1*y1} + 1*{x1,x2,y1}"

    def test_two_by_two_expansion(self):
        x, z = letters("x", 2), letters("z", 2)
        got = multiset_product(x, z)
        expected = FormalSum({
            Multiset([word("x1"), word("x2"), word("z1"), word("z2")]): 1,
            Multiset([word("x1*z1"), word("x2"), word("z2")]): 1,
            Multiset([word("x1"), word("x2*z1"), word("z2")]): 1,
            Multiset([word("x1*z2"), word("x2"), word("z1")]): 1,
            Multiset([word("x1"), word("x2*z2"), word("z1")]): 1,
            Multiset([word("x1*z1"), word("x2*z2")]): 1,
            Multiset([word("x1*z2"), word("x2*z1")]): 1,
        })
        assert got == expected

    def test_empty_is_unit(self):
        x = letters("x", 3)
        empty = Multiset(())
        assert multiset_product(x, empty) == FormalSum.of(x)
        assert multiset_product(empty, x) == FormalSum.of(x)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (3, 3)])
    def test_free_letters_have_coefficient_one(self, n, m):
        got = multiset_product(letters("x", n), letters("y", m))
        assert all(c == 1 for _, c in got.terms())
        assert got.num_terms() == partial_bijection_count(n, m)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 1)])
    def test_cardinality_bounds(self, n, m):
        got = multiset_product(letters("x", n), letters("y", m))
        for ms, _ in got.terms():
            assert max(n, m) <= len(ms) <= n + m

    def test_commutative_when_entries_commute(self):
        # 1x1 matrices are scalars, so the merged products x_i*y_j and
        # y_j*x_i coincide and the ring product commutes
        rng = substream(53, 0)
        for _ in range(25):
            x = Multiset(random_matrix(rng, QQ, 1, 5)
                         for _ in range(rng.randint(0, 3)))
            y = Multiset(random_matrix(rng, QQ, 1, 5)
                         for _ in range(rng.randint(0, 3)))
            assert multiset_product(x, y) == multiset_product(y, x)

    def test_not_commutative_on_free_letters(self):
        # the matched entries multiply in opposite orders, so over a free
        # semigroup the two products differ: {x1*y1} vs {y1*x1}
        x, y = letters("x", 1), letters("y", 1)
        left, right = multiset_product(x, y), multiset_product(y, x)
        assert left != right
        assert left.coefficient(Multiset([word("x1*y1")])) == 1
        assert right.coefficient(Multiset([word("y1*x1")])) == 1
        # the unmatched (empty-bijection) summand is shared
        both = Multiset([word("x1"), word("y1")])
        assert left.coefficient(both) == right.coefficient(both) == 1

    def test_order_independence(self):
        # canonicalization makes entry order irrelevant
        a, b = Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[0, 1], [1, 0]])
        c = Matrix(QQ, [[2, 0], [0, 3]])
        x1, x2 = Multiset([a, b]), Multiset([b, a])
        assert x1 == x2
        y1, y2 = Multiset([c, a, b]), Multiset([b, c, a])
        assert multiset_product(x1, y1) == multiset_product(x2, y2)

    def test_singleton_unit_is_not_the_empty_multiset(self):
        # {1} is a genuine one-element multiset, never collapsed into the
        # empty multiset: {1} x {x} = {1,x} + {x}, not {x}
        eye = Matrix.identity(QQ, 2)
        x = Matrix(QQ, [[1, 2], [3, 4]])
        assert Multiset([eye]) != Multiset(())
        got = multiset_product(Multiset([eye]), Multiset([x]))
        assert got == FormalSum({Multiset([eye, x]): 1, Multiset([x]): 1})
        assert got != FormalSum.of(Multiset([x]))

    def test_matrix_products_can_collide(self):
        # with matrix entries, distinct bijections can produce equal
        # multisets, so coefficients above 1 appear
        eye = Matrix.identity(QQ, 2)
        x = Multiset([eye, eye])
        got = multiset_product(x, Multiset([eye]))
        assert got.coefficient(Multiset([eye, eye])) == 2
        assert got.coefficient(Multiset([eye, eye, eye])) == 1


class TestFormalSum:
    def test_bilinearity_smallest_case(self):
        s = FormalSum.of(Multiset([word("x")]), 2)
        t = FormalSum.of(Multiset([word("y")]), 3)
        got = formal_product(s, t)
        assert got == FormalSum({
            Multiset([word("x"), word("y")]): 6,
            Multiset([word("x*y")]): 6,
        })

    def test_unit_element(self):
        rng = substream(59, 0)
        for _ in range(10):
            s = FormalSum.zero()
            for _ in range(rng.randint(1, 3)):
                ms = Multiset(random_word(rng, "ab", 2)
                              for _ in range(rng.randint(0, 2)))
                s = s + FormalSum.of(ms, rng.randint(-3, 3))
            assert formal_product(s, FormalSum.unit()) == s
            assert formal_product(FormalSum.unit(), s) == s

    def test_additive_inverse_annihilates(self):
        s = FormalSum.of(letters("x", 2), 3)
        t = FormalSum.of(letters("y", 2), 5) + FormalSum.of(letters("y", 1), 1)
        assert formal_product(s - s, t) == FormalSum.zero()

    def test_zero_coefficients_never_stored(self):
        s = FormalSum({letters("x", 1): 1}) + FormalSum({letters("x", 1): -1})
        assert s == FormalSum.zero() and s.num_terms() == 0
        assert s.render() == "0"

    def test_cancelled_product_terms_are_dropped(self):
        # a and b differ only in the column that c's zero row kills
        a = Matrix(QQ, [[1, 2], [3, 4]])
        b = Matrix(QQ, [[1, 7], [3, 9]])
        c = Matrix(QQ, [[1, 0], [0, 0]])
        assert a * c == b * c
        got = formal_product(
            FormalSum({Multiset([a]): 1, Multiset([b]): -1}),
            FormalSum.of(Multiset([c])))
        assert got.num_terms() == 2
        assert got == FormalSum({Multiset([a, c]): 1, Multiset([b, c]): -1})
        assert got.render() == ("1*{[[1,0],[0,0]],[[1,2],[3,4]]} + "
                                "-1*{[[1,0],[0,0]],[[1,7],[3,9]]}")

    def test_scale_and_neg(self):
        s = FormalSum.of(letters("x", 1), 2)
        assert 3 * s == FormalSum.of(letters("x", 1), 6)
        assert -s == FormalSum.of(letters("x", 1), -2)

    @pytest.mark.parametrize("k", [0.5, True], ids=["float", "bool"])
    def test_scale_factor_must_be_an_int(self, k):
        with pytest.raises(TypeError,
                           match=f"^scale factor {k!r} is not an integer$"):
            FormalSum.of(letters("x", 1), 2).scale(k)

    def test_coefficients_must_be_integers(self):
        with pytest.raises(TypeError):
            FormalSum({letters("x", 1): 1.5})  # type: ignore[dict-item]

    def test_keys_must_be_multisets(self):
        with pytest.raises(TypeError,
                           match=r"^key \(Word\(a\),\) is not a Multiset$"):
            FormalSum({(word("a"),): 1})  # type: ignore[dict-item]

    @pytest.mark.parametrize("op,message", [
        (lambda s: s + 1, "+: 'FormalSum' and 'int'"),
        (lambda s: s - 1, "-: 'FormalSum' and 'int'"),
        (lambda s: True * s, "*: 'bool' and 'FormalSum'"),
        (lambda s: s * 1, "*: 'FormalSum' and 'int'"),
    ], ids=["add", "sub", "bool-times", "times-int"])
    def test_int_operands_are_refused(self, op, message):
        """A sum meets an int only as ``int * sum``, bools excluded; the
        other operators leave it to Python, which refuses."""
        with pytest.raises(TypeError, match=re.escape(
                f"unsupported operand type(s) for {message}")):
            op(FormalSum.unit())

    def test_sum_is_not_equal_to_an_int(self):
        assert FormalSum.unit() != 1 and not FormalSum.unit() == 1

    def test_budget_guard(self):
        x = letters("x", 8)
        y = letters("y", 8)
        with pytest.raises(BudgetExceededError):
            formal_product(FormalSum.of(x), FormalSum.of(y), budget=1000)
        with pytest.raises(BudgetExceededError):
            multiset_product(x, y, budget=1000)


class TestAssociativity:
    def test_words_2_2_2(self):
        x, y, z = letters("x", 2), letters("y", 2), letters("z", 2)
        lhs = formal_product(multiset_product(x, y), FormalSum.of(z))
        rhs = formal_product(FormalSum.of(x), multiset_product(y, z))
        assert lhs == rhs

    def test_words_small_cases(self):
        for n, m, k in [(1, 1, 1), (2, 1, 2), (3, 2, 1), (0, 2, 2)]:
            x, y, z = letters("x", n), letters("y", m), letters("z", k)
            lhs = formal_product(multiset_product(x, y), FormalSum.of(z))
            rhs = formal_product(FormalSum.of(x), multiset_product(y, z))
            assert lhs == rhs

    def test_matrix_entries(self):
        ring = ModRing(7)
        for trial in range(20):
            rng = substream(61, trial)
            x, y, z = (Multiset(random_matrix(rng, ring, 2, 6)
                                for _ in range(rng.randint(0, 3)))
                       for _ in range(3))
            lhs = formal_product(multiset_product(x, y), FormalSum.of(z))
            rhs = formal_product(FormalSum.of(x), multiset_product(y, z))
            assert lhs == rhs


class TestMapFormal:
    def test_collision_merging(self):
        m = Matrix(QQ, [[1, 1], [0, 1]])
        hom = LetterHom({"x1": m, "x2": m})
        s = FormalSum.of(Multiset([word("x1")])) + \
            FormalSum.of(Multiset([word("x2")]))
        assert s.map_elements(hom) == FormalSum.of(Multiset([m]), 2)

    def test_empty_multiset_maps_to_itself(self):
        hom = LetterHom({"x1": Matrix(QQ, [[1]])})
        s = FormalSum.of(Multiset(()), 4)
        assert s.map_elements(hom) == s

    @pytest.mark.parametrize("ring,size", [(QQ, 2), (ModRing(7), 3)])
    def test_functoriality_random(self, ring, size):
        alphabet = ("a", "b", "c")
        for trial in range(30):
            rng = substream(67, trial)
            hom = LetterHom({l: random_matrix(rng, ring, size, 3)
                             for l in alphabet})
            def rand_sum():
                acc = FormalSum.zero()
                for _ in range(rng.randint(1, 3)):
                    ms = Multiset(random_word(rng, alphabet, 2)
                                  for _ in range(rng.randint(0, 2)))
                    coeff = rng.randint(1, 3) * (-1) ** rng.randint(0, 1)
                    acc = acc + FormalSum.of(ms, coeff)
                return acc
            s, t = rand_sum(), rand_sum()
            lhs = formal_product(s, t).map_elements(hom)
            rhs = formal_product(s.map_elements(hom), t.map_elements(hom))
            assert lhs == rhs


class TestRendering:
    def test_term_order_by_cardinality_then_entries(self):
        s = (FormalSum.of(letters("x", 2), 1)
             + FormalSum.of(Multiset([word("a")]), -2)
             + FormalSum.of(Multiset(()), 1))
        assert s.render() == "1*{} + -2*{a} + 1*{x1,x2}"

    def test_entries_render_in_canonical_order(self):
        ms = Multiset([word("x2*y1"), word("x1")])
        assert ms.render() == "{x1,x2*y1}"

    def test_repr(self):
        assert repr(FormalSum.unit()) == "FormalSum(1*{})"


def reference_product(x, y, coeff=1):
    """``coeff`` times the sum of ``product_along`` over
    ``partial_bijections``: the product as defined, one bijection at a
    time, with no shared entry products."""
    acc = {}
    for pairs in partial_bijections(len(x), len(y)):
        ms = product_along(x, y, pairs)
        acc[ms] = acc.get(ms, 0) + coeff
    return FormalSum(acc)


def reference_formal_product(s, t):
    acc = FormalSum.zero()
    for ms1, c1 in s.terms():
        for ms2, c2 in t.terms():
            acc = acc + reference_product(ms1, ms2, c1 * c2)
    return acc


class CountingWord(Word):
    """A word that counts the products taken with it on the left."""

    __slots__ = ()
    products = 0

    def __mul__(self, other):
        CountingWord.products += 1
        return Word.__mul__(self, other)


def counting_letters(prefix, n):
    return Multiset(CountingWord([f"{prefix}{i}"]) for i in range(1, n + 1))


def test_entries_must_be_semigroup_elements():
    """Matrices, words (a subclass too) and group-algebra elements are
    entries; anything else is refused as the multiset is built."""
    for bad in (1, "a", Fraction(1, 2)):
        message = re.escape(f"not a semigroup element: {bad!r}")
        with pytest.raises(MismatchError, match=message):
            Multiset([bad])
    c3 = GroupTable.cyclic(3)
    for entries in ([], [word("a*b"), Word(["a"])], [CountingWord(["b"])],
                    [Matrix.identity(QQ, 2), Matrix.zero(QQ, 2)],
                    [GroupAlgebraElement.basis(c3, QQ, 1)]):
        ms = Multiset(entries)
        assert len(ms) == len(entries) and repr(ms)


class TestProductMatchesDefinition:
    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("m", range(4))
    def test_free_letters(self, n, m):
        x, y = letters("x", n), letters("y", m)
        assert multiset_product(x, y) == reference_product(x, y)
        s = FormalSum.of(x, 2) + FormalSum.of(letters("a", 1), -1)
        t = FormalSum.of(y, 3) + FormalSum.of(Multiset(()), 1)
        assert formal_product(s, t) == reference_formal_product(s, t)

    @pytest.mark.parametrize("ring", [QQ, ModRing(7)], ids=["QQ", "mod7"])
    def test_seeded_matrices(self, ring):
        for trial in range(20):
            rng = substream(71, trial)

            def draw():
                return Multiset(random_matrix(rng, ring, 2, 2)
                                for _ in range(rng.randint(0, 3)))

            x, y = draw(), draw()
            assert multiset_product(x, y) == reference_product(x, y)
            s = FormalSum.of(draw(), rng.randint(1, 3)) \
                + FormalSum.of(draw(), -rng.randint(1, 3))
            t = FormalSum.of(draw(), rng.randint(1, 3)) \
                + FormalSum.of(draw(), -rng.randint(1, 3))
            assert formal_product(s, t) == reference_formal_product(s, t)


class TestPlanMemory:
    """Plans of shapes up to ``PLAN_CACHE_MAX`` bijections are cached;
    larger shapes are generated afresh, in the same order, each time."""

    def test_large_shape_leaves_no_cache_entry(self, monkeypatch):
        x, y = letters("x", 6), letters("y", 6)
        assert partial_bijection_count(6, 6) == 13327
        assert partial_bijection_count(6, 6) > multisets.PLAN_CACHE_MAX
        got = multiset_product(x, y)
        assert (6, 6) not in multisets._PLANS
        assert got == reference_product(x, y)
        # the same sum as from the cached tuple of plans
        monkeypatch.setattr(multisets, "PLAN_CACHE_MAX", 10**6)
        monkeypatch.setattr(multisets, "_PLANS", {})
        assert multiset_product(x, y) == got
        assert len(multisets._PLANS[6, 6]) == 13327

    @pytest.mark.parametrize("n,m", [(6, 3), (3, 6)])
    def test_check_all_shapes_stay_cached(self, n, m):
        multiset_product(letters("x", n), letters("y", m))
        assert len(multisets._PLANS[n, m]) == 229

    def test_lazy_plans_keep_the_documented_order(self, monkeypatch):
        monkeypatch.setattr(multisets, "PLAN_CACHE_MAX", 0)
        monkeypatch.setattr(multisets, "_PLANS", {})
        lazy = partial_bijections(3, 4)
        assert multisets._PLANS == {}
        monkeypatch.setattr(multisets, "PLAN_CACHE_MAX", 10**6)
        assert partial_bijections(3, 4) == lazy


class TestEntryProductWork:
    def test_three_by_three_takes_nine_products(self):
        x, y = counting_letters("x", 3), counting_letters("y", 3)
        CountingWord.products = 0
        got = multiset_product(x, y)
        assert CountingWord.products == 9
        assert got == reference_product(x, y)

    def test_formal_product_takes_n_times_m_per_term_pair(self):
        s = FormalSum.of(counting_letters("a", 2), 2) \
            + FormalSum.of(counting_letters("c", 1), -1)
        t = FormalSum.of(counting_letters("b", 3), 1) \
            + FormalSum.of(counting_letters("d", 2), 3)
        CountingWord.products = 0
        formal_product(s, t)
        assert CountingWord.products == 2 * 3 + 2 * 2 + 1 * 3 + 1 * 2


    def test_entries_are_sorted_once_per_product(self, monkeypatch):
        """Entries are ordered by one sort per product, not one per
        bijection: fewer comparisons than the 209 bijections of (4,4)."""
        x, y = letters("x", 4), letters("y", 4)
        calls = []
        less = Word.__lt__

        def counting_lt(a, b):
            calls.append(1)
            return less(a, b)

        monkeypatch.setattr(Word, "__lt__", counting_lt)
        got = multiset_product(x, y)
        assert 0 < len(calls) < partial_bijection_count(4, 4)
        monkeypatch.undo()
        assert got == reference_product(x, y)


class TestEqualEntriesShareARank:
    """Distinct objects that are equal entries (or equal entry products)
    must land on one rank, so their multisets merge as in the definition."""

    @pytest.mark.parametrize("ring", [QQ, ModRing(7)], ids=["QQ", "mod7"])
    def test_identity_and_zero_matrices(self, ring):
        one, zero = Matrix.identity(ring, 2), Matrix.zero(ring, 2)
        x = Multiset([one, zero, Matrix.identity(ring, 2)])
        y = Multiset([Matrix.zero(ring, 2), one * one])
        assert multiset_product(x, y) == reference_product(x, y)

    @pytest.mark.parametrize("ring", [QQ, ModRing(7)], ids=["QQ", "mod7"])
    def test_repeated_entries_and_colliding_products(self, ring):
        a = Matrix(ring, [[0, 1], [1, 0]])       # a * a is the identity
        b = Matrix(ring, [[1, 1], [0, 1]])
        x = Multiset([a, Matrix(ring, [[0, 1], [1, 0]]), b])
        y = Multiset([a, a, Matrix.identity(ring, 2)])
        got = multiset_product(x, y)
        assert got == reference_product(x, y)
        assert all(list(ms.entries) == sorted(ms.entries)
                   for ms in got.multisets())

    def test_repeated_letters(self):
        x = Multiset([word("a"), word("a"), word("a*a")])
        y = Multiset([word("a"), word("a*a")])
        assert multiset_product(x, y) == reference_product(x, y)

    def test_terms_sharing_entries(self):
        one, zero = Matrix.identity(QQ, 2), Matrix.zero(QQ, 2)
        a = Matrix(QQ, [[0, 1], [1, 0]])
        s = (FormalSum.of(Multiset([one, a]), 2)
             + FormalSum.of(Multiset([a]), -1)
             + FormalSum.of(Multiset([one, one, zero]), 1))
        t = (FormalSum.of(Multiset([a, zero]), 1)
             + FormalSum.of(Multiset([a * a]), 3)
             + FormalSum.of(Multiset(()), -2))
        assert formal_product(s, t) == reference_formal_product(s, t)
        w = FormalSum.of(Multiset([word("a"), word("b")]), 1) \
            + FormalSum.of(Multiset([word("a")]), -1)
        assert formal_product(w, w) == reference_formal_product(w, w)

    def test_one_backend_per_product(self):
        """Entries of different backends have no common order, so no sum,
        and hence no product, holds both."""
        words = FormalSum.of(Multiset([word("a")]))
        matrices = FormalSum.of(Multiset([Matrix.identity(QQ, 2)]))
        with pytest.raises(MismatchError):
            words + matrices
        with pytest.raises(MismatchError):
            matrices + words


class TestOneBackendPerSum:
    """A sum's entries sit in one sorted table, so they must share a
    backend, and a ring and size for matrices."""

    PAIRS = pytest.mark.parametrize("a,b", [
        (word("a"), Matrix.identity(QQ, 2)),
        (Matrix.identity(ModRing(7), 2), Matrix.identity(ModRing(11), 2)),
        (Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)),
    ], ids=["word-matrix", "mod7-mod11", "2x2-3x3"])

    @PAIRS
    def test_building_adding_or_mapping_into_two_backends_raises(self, a, b):
        with pytest.raises(MismatchError):
            FormalSum({Multiset([a]): 1, Multiset([b]): 2})
        with pytest.raises(MismatchError):
            FormalSum.of(Multiset([a])) + FormalSum.of(Multiset([b]))
        s = FormalSum.of(Multiset([word("x"), word("y")]))
        with pytest.raises(MismatchError):
            s.map_elements(lambda w: a if w == word("x") else b)

    @PAIRS
    def test_sums_of_two_backends_are_unequal(self, a, b):
        s, t = FormalSum.of(Multiset([a])), FormalSum.of(Multiset([b]))
        assert s != t and not s == t
        assert s.coefficient(Multiset([b])) == 0
        assert (s - s) + t == t  # the cancelled entry leaves no trace


class TestRenderLengthExceeds:
    @pytest.mark.parametrize("s", [
        FormalSum.zero(),
        FormalSum.of(letters("x", 2), -12),
        FormalSum.of(Multiset(()), 3),
        FormalSum.of(Multiset(()), -1) + FormalSum.of(letters("y", 3), 7)
        + FormalSum.of(Multiset([word("x1*y2*z3")]), -250),
        FormalSum.of(Multiset([Matrix(QQ, [[1, -2], [3, 4]]),
                               Matrix(QQ, [[0, 1], [1, 0]])]), 5),
    ], ids=["zero", "negative", "empty-multiset", "mixed", "matrices"])
    def test_matches_rendered_length(self, s):
        length = len(s.render())
        for limit in (-1, 0, length - 1, length, length + 1, 10**6):
            assert s.render_length_exceeds(limit) == (length > limit)


class PairCountingWord(Word):
    """A word whose products stay in the class and record the identities
    of both factors, so products of products are counted too."""

    __slots__ = ()
    pairs: list = []

    def __mul__(self, other):
        PairCountingWord.pairs.append((id(self), id(other)))
        return PairCountingWord._make(self.letters + other.letters)


def pair_counting(*names):
    return Multiset(PairCountingWord(name.split("*")) for name in names)


_ASSOC_CASES = pytest.mark.parametrize("xs,ys,zs", [
    (("x1", "x2"), ("y1", "y2"), ("z1", "z2")),
    (("x1", "x2", "x3"), ("y1",), ("z1", "z2")),
    # equal but distinct entries: two objects for the letter a
    (("a", "a", "b"), ("a", "c"), ("a", "a*c")),
], ids=["2-2-2", "3-1-2", "equal-entries"])


class TestEntryProductsOncePerPair:
    """In (x X y) X z the terms of x X y share their entry objects; each
    distinct pair of entry objects is multiplied once per call."""

    @_ASSOC_CASES
    def test_each_pair_multiplied_once(self, xs, ys, zs):
        x, y, z = pair_counting(*xs), pair_counting(*ys), pair_counting(*zs)
        xy = multiset_product(x, y)
        PairCountingWord.pairs = []
        formal_product(xy, FormalSum.of(z))
        calls = PairCountingWord.pairs
        left = {id(e) for ms in xy.multisets() for e in ms.entries}
        right = {id(e) for e in z.entries}
        assert len(calls) == len(set(calls)) == len(left) * len(right)
        assert set(calls) == {(a, b) for a in left for b in right}

    @_ASSOC_CASES
    def test_matches_the_definition(self, xs, ys, zs):
        x, y, z = pair_counting(*xs), pair_counting(*ys), pair_counting(*zs)
        got = formal_product(multiset_product(x, y), FormalSum.of(z))
        assert got == reference_formal_product(reference_product(x, y),
                                               FormalSum.of(z))


class TestFormalSumPublicBehaviour:
    """``FormalSum`` speaks in ``Multiset``s, whatever it stores."""

    def sample(self):
        return (FormalSum.of(letters("x", 2), 1)
                + FormalSum.of(Multiset([word("b")]), -2)
                + FormalSum.of(Multiset(()), 3)
                + FormalSum.of(Multiset([word("a")]), 5))

    def test_terms_are_multisets_in_canonical_order(self):
        terms = self.sample().terms()
        assert all(type(ms) is Multiset for ms, _ in terms)
        assert [(ms.render(), c) for ms, c in terms] == [
            ("{}", 3), ("{a}", 5), ("{b}", -2), ("{x1,x2}", 1)]
        assert [ms for ms, _ in terms] == sorted(ms for ms, _ in terms)

    def test_coefficient_and_multisets(self):
        s = self.sample()
        assert s.coefficient(Multiset([word("b")])) == -2
        assert s.coefficient(Multiset([word("x2"), word("x1")])) == 1
        assert s.coefficient(Multiset([word("c")])) == 0
        assert all(type(ms) is Multiset for ms in s.multisets())
        assert set(s.multisets()) == {ms for ms, _ in s.terms()}
        assert {ms: s.coefficient(ms) for ms in s.multisets()} == \
            dict(s.terms())

    def test_product_equals_sum_built_from_multisets(self):
        a, b = word("a"), word("b")
        got = multiset_product(Multiset([a, a]), Multiset([b]))
        assert got == FormalSum({
            Multiset([a, a, b]): 1,
            Multiset([word("a*b"), a]): 2,
        })
        assert FormalSum(dict(got.terms())) == got

    def test_map_elements_merges_and_drops_cancelled_images(self):
        m = Matrix(QQ, [[1, 1], [0, 1]])
        hom = LetterHom({"x1": m, "x2": m, "x3": Matrix.identity(QQ, 2)})
        s = (FormalSum.of(Multiset([word("x1"), word("x3")]), 2)
             + FormalSum.of(Multiset([word("x3"), word("x2")]), -2)
             + FormalSum.of(Multiset([word("x1")]), 1)
             + FormalSum.of(Multiset([word("x2")]), 4))
        assert s.map_elements(hom) == FormalSum.of(Multiset([m]), 5)
        assert s.map_elements(hom).num_terms() == 1

    def test_cancelled_terms_are_dropped(self):
        s = self.sample()
        assert not (s - s) and (s - s) == FormalSum.zero()
        assert (0 * s).num_terms() == 0
        t = s + FormalSum.of(Multiset([word("a")]), -5)
        assert t.num_terms() == 3
        assert Multiset([word("a")]) not in t.multisets()
        assert t.render() == "3*{} + -2*{b} + 1*{x1,x2}"


# ---------------------------------------------------------------------------
# FormalSum against a plain model: a dict from sorted entry tuples to
# nonzero int coefficients, written out here with no FormalSum code.

def model_clean(acc):
    return {key: c for key, c in acc.items() if c}


def model_add(a, b):
    acc = dict(a)
    for key, c in b.items():
        acc[key] = acc.get(key, 0) + c
    return model_clean(acc)


def model_scale(a, k):
    return model_clean({key: k * c for key, c in a.items()})


def model_map(a, fn):
    acc = {}
    for key, c in a.items():
        image = tuple(sorted(fn(e) for e in key))
        acc[image] = acc.get(image, 0) + c
    return model_clean(acc)


def model_product(a, b):
    """Every (I, J, alpha), by brute force, for every pair of terms."""
    acc = {}
    for xs, c1 in a.items():
        for ys, c2 in b.items():
            for pairs in brute_force_partial_bijections(len(xs), len(ys)):
                used_i = {i for i, _ in pairs}
                used_j = {j for _, j in pairs}
                out = [xs[i - 1] * ys[j - 1] for i, j in pairs]
                out += [e for i, e in enumerate(xs, 1) if i not in used_i]
                out += [e for j, e in enumerate(ys, 1) if j not in used_j]
                key = tuple(sorted(out))
                acc[key] = acc.get(key, 0) + c1 * c2
    return model_clean(acc)


def model_terms(a):
    return sorted(a.items(), key=lambda kv: (len(kv[0]), kv[0]))


def model_render(a):
    if not a:
        return "0"
    terms = sorted(((len(key), tuple(e.render() for e in key)), c)
                   for key, c in a.items())
    return " + ".join(f"{c}*{{{','.join(strs)}}}" for (_, strs), c in terms)


def as_model(s):
    """The model of ``s``, read through its public ``terms()``."""
    return {ms.entries: c for ms, c in s.terms()}


def _word_pool(rng):
    return [random_word(rng, ("a", "b"), 2) for _ in range(4)]


def _matrix_pool(ring):
    def pool(rng):
        return [random_matrix(rng, ring, 2, 1) for _ in range(4)]
    return pool


class TestAgainstADictModel:
    """Seeded sums over a small pool of values, each drawn as a fresh
    object (so equal entries are mostly distinct objects), checked
    operation by operation against the model."""

    @staticmethod
    def draw(rng, pool):
        """A sum built by ``+`` from 0 to 3 terms, and its model."""
        s, model = FormalSum.zero(), {}
        for _ in range(rng.randint(0, 3)):
            # rebuilt from the letters or rows: a new object per entry
            entries = [type(v)._make(*v.fields().values())
                       for v in (rng.choice(pool)
                                 for _ in range(rng.randint(0, 3)))]
            coeff = rng.randint(-3, 3)
            s = s + FormalSum.of(Multiset(entries), coeff)
            model = model_add(model, {tuple(sorted(entries)): coeff})
        return s, model

    @pytest.mark.parametrize("make_pool,image", [
        (_word_pool, lambda w: Word(w.letters[:1])),
        (_matrix_pool(QQ), lambda m: m * m),
        (_matrix_pool(ModRing(7)), lambda m: m * m),
    ], ids=["words", "QQ", "mod7"])
    def test_operations_match_the_model(self, make_pool, image):
        for trial in range(40):
            rng = substream(1717, trial)
            pool = make_pool(rng)
            (s, ms), (t, mt) = self.draw(rng, pool), self.draw(rng, pool)
            k = rng.randint(-2, 2)
            for got, model in [
                    (s, ms), (s + t, model_add(ms, mt)),
                    (s - t, model_add(ms, model_scale(mt, -1))),
                    (s.scale(k), model_scale(ms, k)),
                    (s.map_elements(image), model_map(ms, image)),
                    (formal_product(s, t), model_product(ms, mt)),
                    (s + t - t, ms)]:
                assert [(m.entries, c) for m, c in got.terms()] == \
                    model_terms(model)
                assert got.render() == model_render(model)
                assert got == FormalSum({Multiset(key): c
                                         for key, c in model.items()})
            assert (s == t) == (ms == mt)
            assert s + t - t == s and (s - s) == FormalSum.zero()
            assert (formal_product(s, t) == formal_product(t, s)) == \
                (model_product(ms, mt) == model_product(mt, ms))


class TestTableWork:
    """A sum's operations work once per distinct entry value, however
    many terms or equal objects hold it."""

    @staticmethod
    def repeated():
        """Four terms over two values, each entry a distinct object."""
        a, b = (lambda: word("a")), (lambda: word("b*a"))
        return (FormalSum.of(Multiset([a(), a(), b()]), 1)
                + FormalSum.of(Multiset([a()]), 2)
                + FormalSum.of(Multiset([b(), b()]), -1)
                + FormalSum.of(Multiset([a(), b()]), 3))

    def test_map_elements_calls_fn_once_per_value(self):
        calls = []

        def fn(w):
            calls.append(w.letters)
            return Word(w.letters[::-1])

        got = self.repeated().map_elements(fn)
        assert sorted(calls) == [("a",), ("b", "a")]
        assert got.coefficient(Multiset([word("a*b"), word("a*b")])) == -1

    def test_render_renders_each_value_once(self, monkeypatch):
        s = self.repeated()
        calls = []
        render = Word.render

        def counting_render(w):
            calls.append(w.letters)
            return render(w)

        monkeypatch.setattr(Word, "render", counting_render)
        text = s.render()
        assert sorted(calls) == [("a",), ("b", "a")]
        calls.clear()
        assert not s.render_length_exceeds(len(text))
        assert sorted(calls) == [("a",), ("b", "a")]

    def test_length_check_stops_at_the_limit(self, monkeypatch):
        """Past the limit, only the elements of the terms read so far are
        rendered, each once, though neighbouring terms share them."""
        words = [word(f"w{i}*w{i}") for i in range(40)]
        s = sum((FormalSum.of(Multiset(words[i:i + 2]), i + 1)
                 for i in range(39)), FormalSum.zero())
        calls = []
        render = Word.render

        def counting_render(w):
            calls.append(w.letters)
            return render(w)

        monkeypatch.setattr(Word, "render", counting_render)
        assert s.render_length_exceeds(100)
        table, _ = s.ranked_terms()
        assert len(table) == 40 and 0 < len(calls) < len(table)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("ring", [QQ, ModRing(7)], ids=["QQ", "mod7"])
    def test_equal_products_compare_without_entry_eq(self, ring,
                                                     monkeypatch):
        """(x X y) X z and x X (y X z) hold equal entry products as
        distinct objects; comparing them takes no ``==`` on entries."""
        rng = substream(1718, 0)
        x, y, z = (FormalSum.of(Multiset(random_matrix(rng, ring, 2, 3)
                                         for _ in range(2)))
                   for _ in range(3))
        lhs = formal_product(formal_product(x, y), z)
        rhs = formal_product(x, formal_product(y, z))
        ids = [{id(e) for ms in side.multisets() for e in ms.entries}
               for side in (lhs, rhs)]
        assert ids[0] != ids[1]
        calls = []
        eq = FrozenValue.__eq__

        def counting_eq(a, b):
            calls.append(1)
            return eq(a, b)

        monkeypatch.setattr(FrozenValue, "__eq__", counting_eq)
        assert lhs == rhs and lhs.num_terms() == 87
        assert calls == []
