"""The multiset ring of a semigroup.

A finite multiset of semigroup elements is stored canonically as a sorted
tuple.  Integer formal sums of multisets form a ring: the product of two
multisets enumerates all partial bijections between their index sets, and
for each one merges the paired entries (multiplying them in the semigroup)
while keeping unpaired entries.  The empty multiset is the multiplicative
unit.

Matched entries merge as x-entry times y-entry, so the product is
commutative when products of entries commute, and not in general: over
free letters {x1} X {y1} = {x1*y1} + {x1,y1} but {y1} X {x1} =
{y1*x1} + {x1,y1}.  What always holds is the order-reversal law: an
anti-automorphism of the semigroup (letter reversal on words, transpose on
matrices), applied to every entry, turns x X y into y X x.

Partial bijections from [n] to [m] are enumerated deterministically: by
matched size k = 0..min(n,m), then domain subsets of [n] in lexicographic
order, then image subsets of [m] in lexicographic order, then the images as
permutations in lexicographic order.  The total count is
sum_k C(n,k)*C(m,k)*k!.

A formal sum stores one ascending table of the distinct entries of its
terms, and keys each term by the sorted tuple of its entries' ranks in
that table; equal but distinct entry objects share a rank.  A product
multiplies each pair of table elements once, shared among all the term
pairs and bijections that match them, and sorts the two tables and the
products into the result's table once, so its bijections work on tuples
of ints.  As the table is sorted, the entries of one formal sum must all
come from one backend (comparable under ``<``): building, adding or
mapping into a sum that mixes, say, words and matrices, or matrices of
two rings or sizes, raises ``MismatchError``.
"""

from __future__ import annotations

import math
from itertools import combinations, islice, permutations

from .elements import GroupAlgebraElement, Matrix, Word
from .errors import BudgetExceededError, MismatchError
from .rings import FrozenValue

#: Default ceiling on the number of intermediate multisets a single formal
#: product may create; the count grows superexponentially in cardinalities.
DEFAULT_BUDGET = 10**7


class Multiset(FrozenValue):
    """A canonical finite multiset of semigroup elements.

    Entries are kept sorted ascending under the backend's total order, so
    two multisets are equal exactly when their entry tuples are equal.  The
    empty multiset is valid (and is the unit of the multiset ring).
    """

    __slots__ = _fields = ("entries",)

    def __new__(cls, entries):
        entries = tuple(entries)
        for e in entries:
            if not isinstance(e, (Matrix, Word, GroupAlgebraElement)):
                raise MismatchError(f"not a semigroup element: {e!r}")
        return cls._make(tuple(sorted(entries)))

    def __len__(self):
        return len(self.entries)

    def __lt__(self, other):
        a, b = self.entries, other.entries
        if len(a) != len(b):
            return len(a) < len(b)
        return a < b

    def render(self) -> str:
        return "{" + ",".join(e.render() for e in self.entries) + "}"

    def __repr__(self):
        return f"Multiset({self.render()})"


#: Shapes (n, m) with at most this many partial bijections keep their plans
#: in ``_PLANS``; larger ones are generated afresh on every use, so memory
#: stays bounded (the (7, 7) plans alone would hold about 20 MB).
PLAN_CACHE_MAX = 5000
_PLANS: dict = {}


def _plans(n: int, m: int):
    """Every partial bijection from [n] to [m] as a flat index plan, 0-based,
    in the documented order: a cached tuple for shapes of at most
    ``PLAN_CACHE_MAX`` bijections, else an iterator in the same order.  A
    plan indexes the list ``table + xs + ys``, where ``table`` is the flat
    n x m table of entry products: it holds i * m + j for each matched
    (i, j), sorted by i, then n * m + i for each unmatched i and
    n * m + n + j for each unmatched j."""
    plans = _PLANS.get((n, m))
    if plans is None:
        plans = _generate_plans(n, m)
        if partial_bijection_count(n, m) <= PLAN_CACHE_MAX:
            plans = _PLANS[n, m] = tuple(plans)
    return plans


def _generate_plans(n: int, m: int):
    nm = n * m
    for k in range(min(n, m) + 1):
        for dom in combinations(range(n), k):
            rest_x = tuple(nm + i for i in range(n) if i not in dom)
            rows = [i * m for i in dom]
            for img_set in combinations(range(m), k):
                rest_y = tuple(nm + n + j for j in range(m)
                               if j not in img_set)
                for images in permutations(img_set):
                    cells = tuple(r + j for r, j in zip(rows, images))
                    yield cells + rest_x + rest_y


def partial_bijections(n: int, m: int) -> tuple:
    """Every partial bijection from [n] to [m], exactly once, in the
    documented deterministic order, each as its tuple of 1-based
    ``(i, j)`` pairs sorted by i."""
    nm = n * m
    return tuple(tuple((c // m + 1, c % m + 1) for c in plan if c < nm)
                 for plan in _plans(n, m))


def partial_bijection_count(n: int, m: int) -> int:
    """sum_k C(n,k)*C(m,k)*k!, the number of partial bijections [n]->[m]."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    return sum(math.comb(n, k) * math.comb(m, k) * math.factorial(k)
               for k in range(min(n, m) + 1))


def product_along(x: Multiset, y: Multiset, pairs) -> Multiset:
    """Merge x and y along one partial bijection, given as its ``(i, j)``
    pairs in any order.

    Index i refers to the i-th entry of the canonical sorted order of x
    (1-based), likewise j for y; each i must be a plain ``int`` (not a
    bool or a float) in 1..|x| and each j one in 1..|y|, none used twice,
    else ``ValueError``.  Matched entries are multiplied (x-entry times
    y-entry), unmatched entries pass through; the result has cardinality
    |x| + |y| - #matched.
    """
    xs, ys = x.entries, y.entries
    free_i, free_j = set(range(1, len(xs) + 1)), set(range(1, len(ys) + 1))
    out = []
    for i, j in pairs:
        if not (type(i) is type(j) is int and i in free_i and j in free_j):
            raise ValueError(f"pair ({i},{j}) is out of range or repeats an "
                             f"index of a partial bijection")
        free_i.remove(i)
        free_j.remove(j)
        out.append(xs[i - 1] * ys[j - 1])
    out.extend(xs[i - 1] for i in free_i)
    out.extend(ys[j - 1] for j in free_j)
    out.sort()
    return Multiset._make(tuple(out))


def multiset_product(x: Multiset, y: Multiset,
                     budget: int = DEFAULT_BUDGET) -> "FormalSum":
    """The ring product of two multisets: the formal sum of ``product_along``
    over every partial bijection between their index sets."""
    return formal_product(FormalSum.of(x), FormalSum.of(y), budget)


def _table(values: list):
    """``(elems, ranks)``: the ascending tuple of the distinct ``values``
    and the rank of each value in it, equal values sharing one.  One sort
    by ``<``, which raises ``MismatchError`` across backends."""
    if len(values) < 2:
        return tuple(values), [0] * len(values)
    ranks = [0] * len(values)
    elems = []
    for i in sorted(range(len(values)), key=values.__getitem__):
        if not elems or elems[-1] < values[i]:
            elems.append(values[i])
        ranks[i] = len(elems) - 1
    return tuple(elems), ranks


def _remap(terms: dict, ranks) -> dict:
    """``terms`` with each rank r replaced by ``ranks[r]``, which must
    increase with r so that rank tuples stay sorted."""
    new = ranks.__getitem__
    return {tuple(map(new, key)): coeff for key, coeff in terms.items()}


def _product(left: "FormalSum", right: "FormalSum") -> "FormalSum":
    """The bilinear product of two formal sums.

    Every term of ``left`` meets every term of ``right``, so each element
    of ``left``'s table is multiplied once by each of ``right``'s, into a
    flat table shared by all the term pairs and bijections that match
    them.  Both tables and the products are sorted once into the result's
    table, so each bijection sorts a short tuple of ranks, which is
    already its term's key.
    """
    xs, ys = left._elems, right._elems
    n, m = len(xs), len(ys)
    elems, ranks = _table([*xs, *ys, *[a * b for a in xs for b in ys]])
    table = ranks[n + m:]
    right_terms = [(cols, [ranks[n + j] for j in cols], c)
                   for cols, c in right._terms.items()]
    acc: dict = {}
    get = acc.get
    for row_key, c1 in left._terms.items():
        rows = [i * m for i in row_key]
        xs_ranks = [ranks[i] for i in row_key]
        for cols, ys_ranks, c2 in right_terms:
            ranked = ([table[r + j] for r in rows for j in cols]
                      + xs_ranks + ys_ranks).__getitem__
            coeff = c1 * c2
            for plan in _plans(len(rows), len(cols)):
                key = tuple(sorted(map(ranked, plan)))
                acc[key] = get(key, 0) + coeff
    return FormalSum._make(elems, acc)


class FormalSum:
    """An integer linear combination of multisets (an element of the
    multiset ring).

    Coefficients are arbitrary-precision integers; zero coefficients are
    never stored.  ``+``/``-`` are the module operations, ``int * sum``
    rescales, and ``sum * sum`` is the ring product extended bilinearly.
    ``_elems`` is the ascending table of exactly the distinct entries the
    terms use, and ``_terms`` maps each multiset, as the sorted tuple of
    its entries' ranks in the table, to its coefficient.  ``terms()``,
    ``multisets()`` and ``coefficient`` speak in ``Multiset``s, built only
    when they are called.
    """

    __slots__ = ("_elems", "_terms")

    def __init__(self, terms: dict):
        for ms, coeff in terms.items():
            if not isinstance(ms, Multiset):
                raise TypeError(f"key {ms!r} is not a Multiset")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
        kept = [(ms.entries, coeff) for ms, coeff in terms.items() if coeff]
        self._elems, ranks = _table([e for es, _ in kept for e in es])
        ranks = iter(ranks)
        self._terms = {tuple(islice(ranks, len(es))): coeff
                       for es, coeff in kept}

    @classmethod
    def _make(cls, elems: tuple, terms: dict) -> "FormalSum":
        """The sum that takes over ``terms``, rank tuples into ``elems``
        to ints, as the operations below build it.  Its zero coefficients
        (terms that cancelled) are deleted, and then the table elements no
        term uses (as after a product with the zero sum)."""
        zeros = [key for key, coeff in terms.items() if not coeff]
        for key in zeros:
            del terms[key]
        if zeros or not terms:
            used = sorted(set().union(*terms))
            elems = tuple(map(elems.__getitem__, used))
            terms = _remap(terms, dict(zip(used, range(len(used)))))
        obj = object.__new__(cls)
        obj._elems = elems
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls({})

    @classmethod
    def of(cls, ms: Multiset, coeff: int = 1) -> "FormalSum":
        return cls({ms: coeff})

    @classmethod
    def unit(cls) -> "FormalSum":
        """The multiplicative unit: the empty multiset with coefficient 1."""
        return cls({Multiset(()): 1})

    def coefficient(self, ms: Multiset) -> int:
        return dict(zip(self.multisets(), self._terms.values())).get(ms, 0)

    def ranked_terms(self):
        """``(table, terms)``: the sum's table and its ``(ranks, coeff)``
        pairs in the canonical (cardinality, entries) order."""
        return self._elems, sorted(self._terms.items(),
                                   key=lambda kv: (len(kv[0]), kv[0]))

    def terms(self):
        """Term pairs in the canonical (cardinality, entries) order."""
        elems, terms = self.ranked_terms()
        return [(Multiset._make(tuple(map(elems.__getitem__, key))), coeff)
                for key, coeff in terms]

    def multisets(self):
        entry = self._elems.__getitem__
        return [Multiset._make(tuple(map(entry, key))) for key in self._terms]

    def __len__(self):
        return len(self._terms)

    num_terms = __len__

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        n = len(self._elems)
        elems, ranks = _table([*self._elems, *other._elems])
        acc = _remap(self._terms, ranks[:n])
        for key, coeff in _remap(other._terms, ranks[n:]).items():
            acc[key] = acc.get(key, 0) + coeff
        return FormalSum._make(elems, acc)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k: int) -> "FormalSum":
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError(f"scale factor {k!r} is not an integer")
        return FormalSum._make(
            self._elems, {key: k * c for key, c in self._terms.items()})

    def __rmul__(self, k):
        if isinstance(k, int) and not isinstance(k, bool):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FormalSum):
            return formal_product(self, other)
        return NotImplemented

    def map_elements(self, fn) -> "FormalSum":
        """Apply ``fn`` to every entry, once per table element, into one
        backend; re-canonicalize, and merge multisets that become equal
        (their coefficients add)."""
        elems, ranks = _table([fn(e) for e in self._elems])
        acc: dict = {}
        for key, coeff in self._terms.items():
            key = tuple(sorted(map(ranks.__getitem__, key)))
            acc[key] = acc.get(key, 0) + coeff
        return FormalSum._make(elems, acc)

    def __eq__(self, other):
        """Equal terms over equal tables.  Equal sums have equal terms,
        rank for rank, so their tables have one length and are compared
        by ``<``, with no ``==`` on entries.  Sums of two backends are
        unequal."""
        if not isinstance(other, FormalSum):
            return NotImplemented
        try:
            return self._terms == other._terms and not any(
                a is not b and (a < b or b < a)
                for a, b in zip(self._elems, other._elems))
        except MismatchError:
            return False

    def render(self) -> str:
        strs = [e.render() for e in self._elems]
        rendered = sorted((((len(key), tuple(map(strs.__getitem__, key))),
                            coeff) for key, coeff in self._terms.items()),
                          key=lambda t: t[0])
        return " + ".join(f"{coeff}*{{{','.join(key[1])}}}"
                          for key, coeff in rendered) or "0"

    def render_length_exceeds(self, limit: int) -> bool:
        """Whether ``len(self.render()) > limit``, without building the
        whole string: term lengths are summed until the total passes
        ``limit``.  Term order does not change the length.  A table
        element is rendered when a term first reaches it, at most once."""
        elems = self._elems
        # by rank: the element's rendered length and a comma, 0 until known
        size = [0] * len(elems)
        total = -len(" + ") if self._terms else len("0")
        for key, coeff in self._terms.items():
            total += len(f" + {coeff}*{{}}") - bool(key)
            for r in key:
                n = size[r]
                if not n:
                    n = size[r] = len(elems[r].render()) + 1
                total += n
            if total > limit:
                return True
        return total > limit

    def __repr__(self):
        return f"FormalSum({self.render()})"


def formal_product(left: FormalSum, right: FormalSum,
                   budget: int = DEFAULT_BUDGET) -> FormalSum:
    """Bilinear extension of the multiset product.  Each pair of table
    elements is multiplied once, however many term pairs hold it.

    Refuses to start when the predicted number of intermediate multisets
    (summed over all term pairs) exceeds ``budget``.
    """
    predicted = 0
    for xs in left._terms:
        for ys in right._terms:
            predicted += partial_bijection_count(len(xs), len(ys))
            if predicted > budget:
                raise BudgetExceededError(
                    f"formal product predicts more than {budget} "
                    f"intermediate multisets")
    return _product(left, right)
