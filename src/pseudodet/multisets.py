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
sum_k C(n,k)*C(m,k)*k!.  A product computes each entry product a*b once
per distinct pair of entry objects, however many terms of the factors hold
them, and shares it among all the bijections that match a with b.  It
sorts the distinct entries once and works on their ranks, so all entries
of one product, over every term of both factors, must come from one
backend.  A formal sum keys its terms by sorted entry tuples, not by
``Multiset`` objects.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from .errors import BudgetExceededError
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
        return cls._make(tuple(sorted(entries)))

    @classmethod
    def empty(cls) -> "Multiset":
        return _EMPTY

    def __len__(self):
        return len(self.entries)

    def __lt__(self, other):
        a, b = self.entries, other.entries
        if len(a) != len(b):
            return len(a) < len(b)
        return a < b

    def render(self) -> str:
        return "{" + ",".join(_render_entry(e) for e in self.entries) + "}"

    def __repr__(self):
        return f"Multiset({self.render()})"


_EMPTY = Multiset(())


def _render_entry(e) -> str:
    render = getattr(e, "render", None)
    return render() if render is not None else str(e)


def _render_term(entry_strs, coeff) -> str:
    """One term of a rendered formal sum: ``coeff*{e1,e2,..}``."""
    return f"{coeff}*{{{','.join(entry_strs)}}}"


class PartialBijection(FrozenValue):
    """A triple (I, J, alpha): I in [1..n], J in [1..m], alpha: I -> J.

    ``pairs`` holds (i, alpha(i)) sorted by i; all i are distinct and all
    alpha(i) are distinct.
    """

    __slots__ = _fields = ("n", "m", "pairs")

    def _validate(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be >= 0")
        seen_i, seen_j = set(), set()
        prev_i = 0
        for i, j in self.pairs:
            if not (1 <= i <= self.n and 1 <= j <= self.m):
                raise ValueError(f"pair ({i},{j}) out of range")
            if i in seen_i or j in seen_j:
                raise ValueError("pairs must define a bijection")
            if i <= prev_i:
                raise ValueError("pairs must be sorted by domain index")
            seen_i.add(i)
            seen_j.add(j)
            prev_i = i

    @property
    def matched(self) -> int:
        return len(self.pairs)


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
    documented deterministic order."""
    nm = n * m
    return tuple(
        PartialBijection(n, m, tuple((c // m + 1, c % m + 1)
                                     for c in plan if c < nm))
        for plan in _plans(n, m))


def partial_bijection_count(n: int, m: int) -> int:
    """sum_k C(n,k)*C(m,k)*k!, the number of partial bijections [n]->[m]."""
    return sum(math.comb(n, k) * math.comb(m, k) * math.factorial(k)
               for k in range(min(n, m) + 1))


def product_along(x: Multiset, y: Multiset, pb: PartialBijection) -> Multiset:
    """Merge x and y along one partial bijection.

    Index i of the bijection refers to the i-th entry of the canonical
    sorted order of x (1-based), likewise j for y.  Matched entries are
    multiplied (x-entry times y-entry), unmatched entries pass through; the
    result has cardinality |x| + |y| - #matched.
    """
    xs, ys = x.entries, y.entries
    if pb.n != len(xs) or pb.m != len(ys):
        raise ValueError(
            f"bijection shape ({pb.n},{pb.m}) does not match multisets "
            f"({len(xs)},{len(ys)})")
    used_i = {i for i, _ in pb.pairs}
    used_j = {j for _, j in pb.pairs}
    out = [xs[i - 1] * ys[j - 1] for i, j in pb.pairs]
    out.extend(xs[i] for i in range(len(xs)) if i + 1 not in used_i)
    out.extend(ys[j] for j in range(len(ys)) if j + 1 not in used_j)
    out.sort()
    return Multiset._make(tuple(out))


def multiset_product(x: Multiset, y: Multiset,
                     budget: int = DEFAULT_BUDGET) -> "FormalSum":
    """The ring product of two multisets: the formal sum of ``product_along``
    over every partial bijection between their index sets."""
    return formal_product(FormalSum.of(x), FormalSum.of(y), budget)


def _product(left: dict, right: dict) -> "FormalSum":
    """The bilinear product of two formal sums given as their term dicts
    (sorted entry tuple -> coefficient).

    Every term of ``left`` meets every term of ``right``, so the entry
    products needed are those of each distinct entry object of ``left``
    with each of ``right``: each pair ``(id(a), id(b))`` is multiplied
    once, into a flat table shared by all the term pairs and bijections
    that match a with b (the entries stay alive for the call, so no id is
    reused).  The distinct objects (entries and their products) are
    sorted once by value and replaced by ranks, equal objects sharing
    one, so each bijection sorts and hashes a short tuple of ints, and
    the entries of each resulting multiset come out sorted.  Entries must
    therefore all come from one backend (comparable under ``<``): mixing,
    say, words and matrices raises ``MismatchError``.
    """
    lefts = {id(a): a for xs in left for a in xs}
    rights = {id(b): b for ys in right for b in ys}
    width = len(rights)
    row = {ida: i * width for i, ida in enumerate(lefts)}
    col = {idb: j for j, idb in enumerate(rights)}
    table = [a * b for a in lefts.values() for b in rights.values()]
    distinct = {id(e): e for e in table}
    distinct.update(lefts)
    distinct.update(rights)
    rank = {}
    elems = []
    for e in sorted(distinct.values()):
        if not elems or elems[-1] < e:
            elems.append(e)
        rank[id(e)] = len(elems) - 1
    table = [rank[id(e)] for e in table]
    right_terms = [([col[id(b)] for b in ys], [rank[id(b)] for b in ys], c)
                   for ys, c in right.items()]
    acc: dict = {}
    get = acc.get
    for xs, c1 in left.items():
        rows = [row[id(a)] for a in xs]
        xs_ranks = [rank[id(a)] for a in xs]
        for cols, ys_ranks, c2 in right_terms:
            ranked = ([table[r + j] for r in rows for j in cols]
                      + xs_ranks + ys_ranks).__getitem__
            coeff = c1 * c2
            for plan in _plans(len(rows), len(cols)):
                key = tuple(sorted(map(ranked, plan)))
                acc[key] = get(key, 0) + coeff
    return FormalSum._of_entries(
        {tuple(map(elems.__getitem__, key)): coeff
         for key, coeff in acc.items()})


class FormalSum:
    """An integer linear combination of multisets (an element of the
    multiset ring).

    Coefficients are arbitrary-precision integers; zero coefficients are
    never stored.  ``+``/``-`` are the module operations, ``int * sum``
    rescales, and ``sum * sum`` is the ring product extended bilinearly.
    Terms are stored keyed by each multiset's sorted entry tuple, which is
    exactly what ``Multiset`` hashes and compares; ``terms()``,
    ``multisets()`` and ``coefficient`` speak in ``Multiset``s, built only
    when they are called.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        clean = {}
        for ms, coeff in terms.items():
            if not isinstance(ms, Multiset):
                raise TypeError(f"key {ms!r} is not a Multiset")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            if coeff != 0:
                clean[ms.entries] = coeff
        self._terms = clean

    @classmethod
    def _of_entries(cls, terms: dict) -> "FormalSum":
        """The sum that takes over ``terms``, a dict from sorted entry
        tuples to int coefficients, as the operations below build it; its
        zero coefficients (terms that cancelled) are deleted."""
        for key in [key for key, coeff in terms.items() if not coeff]:
            del terms[key]
        obj = object.__new__(cls)
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
        return cls({Multiset.empty(): 1})

    def coefficient(self, ms: Multiset) -> int:
        return self._terms.get(ms.entries, 0)

    def entry_terms(self):
        """``(entries, coeff)`` pairs, ``entries`` a multiset's sorted entry
        tuple, in the canonical (cardinality, entries) order."""
        return sorted(self._terms.items(),
                      key=lambda kv: (len(kv[0]), kv[0]))

    def terms(self):
        """Term pairs in the canonical (cardinality, entries) order."""
        return [(Multiset._make(entries), coeff)
                for entries, coeff in self.entry_terms()]

    def multisets(self):
        return [Multiset._make(entries) for entries in self._terms]

    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        acc = dict(self._terms)
        for entries, coeff in other._terms.items():
            acc[entries] = acc.get(entries, 0) + coeff
        return FormalSum._of_entries(acc)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k: int) -> "FormalSum":
        return FormalSum._of_entries(
            {entries: k * c for entries, c in self._terms.items()})

    def __rmul__(self, k):
        if isinstance(k, int) and not isinstance(k, bool):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FormalSum):
            return formal_product(self, other)
        return NotImplemented

    def map_elements(self, fn) -> "FormalSum":
        """Apply ``fn`` to every entry of every multiset, re-canonicalize,
        and merge multisets that become equal (their coefficients add)."""
        acc: dict = {}
        for entries, coeff in self._terms.items():
            image = tuple(sorted(map(fn, entries)))
            acc[image] = acc.get(image, 0) + coeff
        return FormalSum._of_entries(acc)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def render(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for entries, coeff in self._terms.items():
            entry_strs = tuple(_render_entry(e) for e in entries)
            rendered.append(((len(entries), entry_strs), coeff))
        rendered.sort(key=lambda t: t[0])
        return " + ".join(_render_term(key[1], coeff)
                          for key, coeff in rendered)

    def render_length_exceeds(self, limit: int) -> bool:
        """Whether ``len(self.render()) > limit``, without building the
        whole string: term lengths are summed until the total passes
        ``limit``.  Term order does not change the length, so no sort is
        needed."""
        if not self._terms:
            return len("0") > limit
        total = -len(" + ")
        for entries, coeff in self._terms.items():
            total += len(" + ") + len(
                _render_term(map(_render_entry, entries), coeff))
            if total > limit:
                return True
        return False

    def __repr__(self):
        return f"FormalSum({self.render()})"


def formal_product(left: FormalSum, right: FormalSum,
                   budget: int = DEFAULT_BUDGET) -> FormalSum:
    """Bilinear extension of the multiset product.  Each distinct pair of
    entry objects is multiplied once, however many term pairs hold it
    (the terms of a product result share their entry objects).  The
    entries of every term of both factors must come from one backend.

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
    return _product(left._terms, right._terms)
