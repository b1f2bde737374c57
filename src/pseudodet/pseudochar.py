"""Central functions, their recursive multilinear forms, and determinants.

Let f be a central function (f(xy) = f(yx)) from an algebra into a
commutative scalar ring.  A tower of forms is built from f by recursion on
the argument count n:

    form_1(x) = f(x)
    form_n(x_1,..,x_n) = f(x_n) * form_{n-1}(x_1,..,x_{n-1})
                         - sum_i form_{n-1}(.., x_{i-1}, x_i*x_n, x_{i+1}, ..)

For central f the value only depends on the multiset of arguments, which is
what makes memoization on canonical multisets valid (``literal_form``
evaluates the recursion literally on the given sequence, with no
reordering; that variant is what the symmetry tests exercise).

A central f with f(1) = d, (d!)^-1 available, and form_{d+1} identically
zero is a pseudocharacter of dimension d; from such an f one obtains a
multiplicative determinant  det(x) = (1/d!) * form_d(x,..,x)  and a monic
characteristic polynomial whose t^(d-1) coefficient recovers -f(x).
"""

from __future__ import annotations

import math
from bisect import insort
from functools import cache, partial
from itertools import permutations
from operator import mul

from .elements import GroupTable, _check_size, _kernels, _matrix_rows
from .errors import CapExceededError, NotInvertibleError
from .multisets import DEFAULT_BUDGET, FormalSum, Multiset, formal_product
from .rings import FrozenValue, Ring

#: Largest argument count the recursion accepts (8! leaf terms).
REC_CAP = 8
#: Largest argument count the permutation sums accept.
ORACLE_CAP = 7


class CentralFunction(FrozenValue):
    """A central function f: R -> A with a declared dimension.

    ``evaluate`` must be pure.  When ``pseudocharacter=True`` the constructor
    eagerly checks that (dim!)^-1 exists in the scalar ring, which is part of
    the definition of a dimension-d pseudocharacter (and fails, for example,
    for dimension 3 over Z/6Z).  ``_matrix`` is the (ring, size) of
    ``matrix_trace``'s f, else None.
    """

    __slots__ = _fields = ("_evaluate", "dim", "ring", "domain", "name",
                           "_matrix")

    def __new__(cls, evaluate, dim: int, ring: Ring, *, domain: str = "R",
                name: str = "f", pseudocharacter: bool = False,
                _matrix=None):
        if type(dim) is not int or dim < 1:
            raise ValueError("dimension must be a positive integer")
        if pseudocharacter:
            ring.inverse_of_factorial(dim)
        return cls._make(evaluate, dim, ring, domain, name, _matrix)

    def __call__(self, x):
        return self._evaluate(x)

    def __repr__(self):
        return (f"CentralFunction({self.name}, dim={self.dim}, "
                f"ring={self.ring.describe()}, domain={self.domain})")


def matrix_trace(ring: Ring, size: int, dim: int | None = None, *,
                 pseudocharacter: bool = True) -> CentralFunction:
    """The trace on size x size matrices, declared with dimension ``dim``
    (defaults to the matrix size, the honest choice).  ``size`` must be
    a positive int, as ``Matrix.identity`` requires."""
    _check_size(size)
    return CentralFunction(
        lambda m: m.trace(), dim if dim is not None else size, ring,
        domain=f"M{size}({ring.describe()})", name="trace",
        pseudocharacter=pseudocharacter, _matrix=(ring, size))


def regular_trace(group: GroupTable, ring: Ring) -> CentralFunction:
    """Trace of the left regular representation of a finite group: n times
    the coefficient of the identity.  A pseudocharacter of dimension n."""
    n = group.order
    return CentralFunction(
        lambda a: ring.cell(n * a.coefficient(0)), n, ring,
        domain=f"Q[G], |G|={n}", name="regular-trace")


class _FormEvaluator:
    """Per-evaluation state; ``form`` and ``on_sum`` are the entry points.

    Each distinct element is interned once to an int id: ``ids`` maps it
    to the id, ``elems`` maps the id back and, as elements of one backend
    sort by ``<``, gives the element order.  f runs at intern time (every
    interned element is evaluated, and ``evaluate`` is pure) into
    ``f_cells``.  The recursion works on plain scalars: form_1 is read
    from ``f_cells``, form_2 is written out as f(a)·f(b) − f(a·b), with
    f(a·b) from ``f_pair(self, a, b)`` (the evaluator is passed in, so no
    evaluator refers to itself and each is freed when its call returns),
    and from n = 3 on each value goes through ``ring.cell`` once into the
    memo, keyed on id tuples in the element order, so a key stands for
    the sorted argument multiset and the largest element is the one
    peeled.  Equal ids sit side by side in a key and removing either of
    two gives the same sub-key, so each distinct argument is peeled once
    and its sub-form subtracted once per copy.  A key of n >= 4 equal ids
    (form_n(x, .., x)) is not peeled but summed by Newton's identities
    from the sub-keys of n - 1 .. 1 copies, f of the cached powers x ..
    x^(n-1) and one ``f_pair`` for f(x^n).  ``products`` caches pair
    products on id pairs.  ``form`` and ``on_sum`` return a
    ``ring.cell``.
    Fresh per top-level call, so evaluations never share mutable state.

    For ``matrix_trace``'s f the elements (and the keys ``form`` sorts)
    are the matrices' row tuples: each argument is checked against f's
    ring and size as it enters, and products, f-cells and every f(a·b)
    are the (ring, size) kernels' raw values (f(a·b) is the pair trace,
    which builds no product), so no ``Matrix`` is built.  A mod-m value
    is already reduced; a rational may be an integral ``Fraction`` until
    the memo or the exit makes it canonical.  Any other f runs on the
    elements themselves: each f value enters once through
    ``f.ring.cell``, which checks it, and ``f_pair`` builds and interns
    the product, so f runs once per distinct element."""

    __slots__ = ("ring", "memo", "ids", "elems", "f_cells", "products",
                 "arg", "mul", "f_cell", "f_pair")

    def __init__(self, f: CentralFunction):
        ring = self.ring = f.ring
        self.memo = {}
        self.ids = {}
        elems = self.elems = []
        f_cells = self.f_cells = []
        self.products = {}
        if f._matrix is None:
            cell = ring.cell
            self.arg, self.mul = (lambda x: x), mul
            self.f_cell = lambda x: cell(f(x))
            self.f_pair = lambda ev, a, b: f_cells[ev.product(a, b)]
            return
        self.arg = partial(_matrix_rows, *f._matrix)
        self.mul, self.f_cell, pair_trace = _kernels(*f._matrix)
        self.f_pair = lambda ev, a, b: pair_trace(elems[a], elems[b])

    def intern(self, x) -> int:
        """The id of element ``x``, assigned (and f computed) on first
        sight."""
        ids = self.ids
        fresh = len(ids)
        i = ids.setdefault(x, fresh)  # one hash of x, not two
        if i == fresh:
            self.elems.append(x)
            self.f_cells.append(self.f_cell(x))
        return i

    def product(self, a: int, b: int) -> int:
        """The id of elems[a] * elems[b], cached on the id pair."""
        p = self.products.get((a, b))
        if p is None:
            elems = self.elems
            p = self.products[(a, b)] = self.intern(
                self.mul(elems[a], elems[b]))
        return p

    def form(self, args):
        """form_n of the arguments, in any order, as a scalar."""
        keys = sorted(map(self.arg, args))
        _check_arity(len(keys))
        return self.ring.cell(self.value(tuple(map(self.intern, keys))))

    def on_sum(self, s: FormalSum):
        """``form_on_sum`` of ``s``, through this evaluator's caches: each
        element of the sum's table is interned once, the ids of a term's
        ranks (its entries in element order) are its memo key, and the
        terms are summed as cells, in the sum's order."""
        ring = self.ring
        table, terms = s.ranked_terms()
        ids = [self.intern(self.arg(e)) for e in table]
        total = ring.cell(0)
        for ranks, coeff in terms:
            if not ranks:
                total += coeff
                continue
            _check_arity(len(ranks))
            total += coeff * self.value(tuple(map(ids.__getitem__, ranks)))
        return ring.cell(total)

    def value(self, key: tuple):
        """The cell of form_n on the multiset with memo key ``key``
        (n = len(key) >= 1); memoized and canonical from n = 3 on."""
        fc = self.f_cells
        f_pair = self.f_pair
        n = len(key)
        if n <= 2:
            if n == 1:
                return fc[key[0]]
            a, b = key
            return fc[a] * fc[b] - f_pair(self, a, b)
        memo = self.memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        last = key[-1]
        head = key[:-1]
        product = self.product
        if n == 3:
            # the three sub-forms of size 2 written out, saving their calls
            a, b = head
            order = self.elems
            result = fc[last] * (fc[a] * fc[b] - f_pair(self, a, b))
            for e, other in ((a, b),) if a == b else ((a, b), (b, a)):
                merged = product(e, last)
                lo, hi = ((merged, other) if order[merged] < order[other]
                          else (other, merged))
                sub = fc[merged] * fc[other] - f_pair(self, lo, hi)
                result -= sub
            if a == b:  # the two merged terms are one term
                result -= sub
        elif key[0] == last:
            # one argument x, n times: on its powers, which commute, the
            # recursion unrolls to Newton's identities for every f,
            # form_n = sum_i (-1)^(i-1) (n-1)!/(n-i)! f(x^i) form_{n-i}
            value = self.value
            power, coeff, result = last, 1, 0
            for i in range(1, n):  # f(x^i) times form_{n-i}(x, .., x)
                result += coeff * fc[power] * value(key[i:])
                coeff *= i - n
                if i < n - 1:
                    power = product(power, last)
            result += coeff * f_pair(self, power, last)
        else:
            order = self.elems.__getitem__
            value = self.value
            result = fc[last] * value(head)
            prev = None
            for i, e in enumerate(head):
                if e == prev:  # equal ids are adjacent: the same sub-key
                    result -= sub
                    continue
                prev = e
                rest = list(head)
                del rest[i]
                insort(rest, product(e, last), key=order)
                sub = value(tuple(rest))
                result -= sub
        result = memo[key] = self.ring.cell(result)
        return result


def _check_arity(n: int) -> None:
    if n == 0:
        raise ValueError("form of zero arguments: use form_on_sum on the "
                         "empty multiset, whose value is 1")
    if n > REC_CAP:
        raise CapExceededError(
            f"{n} arguments exceed the recursion cap of {REC_CAP}")


def literal_form(f: CentralFunction, args):
    """form_n(args) by the defining recursion, run verbatim on the
    sequence as given: no reordering and no cache.  The reference that
    ``recursive_form`` is tested against; each f value enters through
    ``f.ring.cell``."""
    seq = tuple(args)
    _check_arity(len(seq))
    if len(seq) == 1:
        return f.ring.cell(f(seq[0]))
    last = seq[-1]
    head = seq[:-1]
    total = f.ring.cell(f(last)) * literal_form(f, head)
    for i in range(len(head)):
        merged = head[:i] + (head[i] * last,) + head[i + 1:]
        total = total - literal_form(f, merged)
    return f.ring.cell(total)


def recursive_form(f: CentralFunction, args):
    """Evaluate form_n(args) by the defining recursion, memoized.

    Arguments are canonicalized to a sorted multiset and evaluated on ring
    cells, with f cached per distinct element and each sub-form of three
    or more arguments cached per call; this is valid for central f, whose
    forms are symmetric, and is what makes evaluations with repeated
    arguments (determinants) cheap.  Every f value must be a scalar of
    ``f.ring``: unless f is ``matrix_trace``'s, whose values come from
    the ring's own kernels, it enters through ``f.ring.cell``, which
    raises ``MismatchError`` for another ring's.  Zero arguments raise
    ``ValueError``, more than ``REC_CAP`` ``CapExceededError``.
    """
    return _FormEvaluator(f).form(args)


def form_on_sum(f: CentralFunction, s: FormalSum):
    """Linear extension of the forms to a formal sum of multisets.

    Each multiset contributes its coefficient times form_|ms|(ms); the empty
    multiset contributes its coefficient times 1.
    """
    return _FormEvaluator(f).on_sum(s)


def _cycles(perm: tuple) -> tuple:
    """Cycle decomposition; each cycle starts at its smallest element and
    follows i -> perm[i]."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def _check_perm_cap(n: int) -> None:
    """Refuse a permutation sum over S_n past ``ORACLE_CAP``."""
    if n > ORACLE_CAP:
        raise CapExceededError(
            f"size {n} exceeds the permutation cap of {ORACLE_CAP}")


@cache
def _signed_perms(n: int) -> tuple:
    """The ``(perm, sign, cycles)`` rows of S_n, perms in lexicographic
    order, built on first use of each n: the one table of signs and
    cycles.  Past ``ORACLE_CAP`` it raises ``CapExceededError`` first."""
    _check_perm_cap(n)
    rows = []
    for perm in permutations(range(n)):
        cycles = _cycles(perm)
        rows.append((perm, (-1) ** (n - len(cycles)), cycles))
    return tuple(rows)


def cycle_sum_form(f: CentralFunction, args):
    """Independent oracle for form_n: the signed permutation cycle sum.

    For each permutation, multiply the arguments along every cycle (starting
    at the cycle's smallest index, following the permutation) and apply f to
    each cycle product, through ``f.ring.cell``; the permutation contributes
    sign * product of those values, where sign = (-1)^(n - #cycles).
    Shares no code with ``recursive_form``; their agreement is a test
    target, not an assumption.
    """
    seq = tuple(args)
    if not seq:
        raise ValueError("cycle sum needs at least one argument")
    total = f.ring.zero()
    for _, sign, cycles in _signed_perms(len(seq)):
        term = None
        for cycle in cycles:
            prod = seq[cycle[0]]
            for idx in cycle[1:]:
                prod = prod * seq[idx]
            fv = f.ring.cell(f(prod))
            term = fv if term is None else term * fv
        total = total + sign * term
    return f.ring.cell(total)


# ---------------------------------------------------------------------------
# checks

class CheckReport(FrozenValue):
    __slots__ = _fields = ("entries",)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.entries)

    def render(self) -> str:
        lines = [f"[{'ok' if ok else 'FAIL'}] {name}: {detail}"
                 for name, detail, ok in self.entries]
        return "\n".join(lines)


def check_pseudocharacter(f: CentralFunction, samples) -> CheckReport:
    """Verify the pseudocharacter axioms on concrete samples.

    Checks f(1) = dim, invertibility of dim!, centrality and additivity on
    sample pairs, homogeneity on each sample, and the vanishing of
    form_{dim+1} on sampled (dim+1)-tuples.  The samples are elements of
    a unital algebra with ``+``, as a pseudocharacter's domain is: a word
    raises ``UnitlessError``.  Each report entry is a ``(name, detail,
    ok)`` tuple; failures are entries, never exceptions.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample element")
    ring, d = f.ring, f.dim
    entries = []

    value = f(samples[0].one())
    entries.append((
        "unit-value", f"f(1) = {ring.render(value)}, declared dim {d}",
        value == ring.cell(d)))

    try:
        inv = ring.inverse_of_factorial(d)
        entries.append((
            "factorial-invertible", f"({d}!)^-1 = {ring.render(inv)}", True))
    except NotInvertibleError as exc:
        entries.append(("factorial-invertible", str(exc), False))

    pairs = [(samples[i], samples[(i + 1) % len(samples)])
             for i in range(len(samples))]
    central_ok = all(f(x * y) == f(y * x) for x, y in pairs)
    entries.append((
        "central", f"f(xy) = f(yx) on {len(pairs)} sample pairs", central_ok))

    additive_ok = all(f(x + y) == ring.cell(f(x) + f(y)) for x, y in pairs)
    entries.append((
        "additive", f"f(x+y) = f(x)+f(y) on {len(pairs)} sample pairs",
        additive_ok))
    homog_ok = all(f(x.scale(2)) == ring.cell(2 * f(x)) for x in samples)
    entries.append(("homogeneous", "f(2x) = 2 f(x) on all samples", homog_ok))

    zero = ring.zero()
    tuples = [tuple(samples[(i + k) % len(samples)] for k in range(d + 1))
              for i in range(len(samples))]
    tuples.append((samples[0],) * (d + 1))
    vanish_ok = all(recursive_form(f, t) == zero for t in tuples)
    entries.append((
        "vanishing", f"form_{d + 1} = 0 on {len(tuples)} sampled tuples",
        vanish_ok))

    return CheckReport(tuple(entries))


def product_formula_check(f: CentralFunction, x: Multiset, y: Multiset,
                          budget: int = DEFAULT_BUDGET):
    """Compare form(x ring-product y) with form(x) * form(y).

    The equality holds for every central f (no pseudocharacter hypothesis);
    both sides are computed through one shared evaluator cache.
    """
    ev = _FormEvaluator(f)
    sx, sy = FormalSum.of(x), FormalSum.of(y)
    lhs = ev.on_sum(formal_product(sx, sy, budget))
    rhs = f.ring.cell(ev.on_sum(sx) * ev.on_sum(sy))
    return lhs, rhs, lhs == rhs


def degree_product_check(f: CentralFunction, xs, ys):
    """For a dimension-d pseudocharacter and d-tuples xs, ys, compare
    form_d(xs) * form_d(ys) with the sum over all permutations s of
    form_d(x_1 y_s(1), .., x_d y_s(d)).

    For ``matrix_trace``'s f, which is linear on matrices, the form is
    multilinear, and from d = 4 on, where 2^d - 1 < d!, the permutation
    sum is taken by inclusion-exclusion (Ryser's formula): the sum over
    nonempty S of (-1)^(d-|S|) form_d(x_1 Y_S, .., x_d Y_S), with Y_S
    the sum of y_j over j in S.  Any other f may be neither additive nor
    defined on sums, and gets the d! forms.  Both sums keep the
    permutation cap."""
    xs, ys = tuple(xs), tuple(ys)
    d = f.dim
    if len(xs) != d or len(ys) != d:
        raise ValueError(f"need two tuples of exactly dim={d} elements")
    _check_perm_cap(d)
    ev = _FormEvaluator(f)
    lhs = f.ring.cell(ev.form(xs) * ev.form(ys))
    rhs = f.ring.zero()
    if d <= 3 or f._matrix is None:
        for perm, _, _ in _signed_perms(d):
            mixed = tuple(xs[i] * ys[perm[i]] for i in range(d))
            rhs = rhs + ev.form(mixed)
    else:
        sums = [None]  # sums[S] is Y_S, S a bit set of the j
        for s in range(1, 1 << d):
            low = s & -s
            y = ys[low.bit_length() - 1]
            sums.append(y if s == low else sums[s ^ low] + y)
            sign = (-1) ** (d - s.bit_count())
            rhs = rhs + sign * ev.form(tuple(x * sums[s] for x in xs))
    rhs = f.ring.cell(rhs)
    return lhs, rhs, lhs == rhs


def determinant(f: CentralFunction, x):
    """(1/dim!) * form_dim(x, .., x): the multiplicative determinant
    attached to a pseudocharacter.  From dim = 4 on the form is summed
    by Newton's identities, on f(x) .. f(x^dim), with integer
    coefficients, so (dim!)^-1 stays the only division."""
    d = f.dim
    _check_arity(d)
    inv = f.ring.inverse_of_factorial(d)
    return f.ring.cell(inv * recursive_form(f, (x,) * d))


def multiplicativity_check(f: CentralFunction, x, y):
    """Compare det(xy) with det(x) * det(y) (exact)."""
    lhs = determinant(f, x * y)
    rhs = f.ring.cell(determinant(f, x) * determinant(f, y))
    return lhs, rhs, lhs == rhs


def identity_padding_check(f: CentralFunction, x, n: int):
    """Compare form_n(x, 1, .., 1) with the closed form
    f(x) * prod_{i=1..n-1} (f(1) - i); holds for every central f on a
    unital backend.  Raises ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"identity padding needs n >= 1, got {n}")
    one = x.one()
    lhs = recursive_form(f, (x,) + (one,) * (n - 1))
    f1 = f(one)
    rhs = f(x)
    for i in range(1, n):
        rhs = rhs * (f1 - i)
    rhs = f.ring.cell(rhs)
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# characteristic polynomials

class CharPoly(FrozenValue):
    """Scalar coefficients c_0..c_d of det(t - x), lowest degree first."""

    __slots__ = _fields = ("ring", "coefficients")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return self.coefficients[-1] == self.ring.one()

    def trace(self):
        """-c_{d-1}: the trace read off the characteristic polynomial."""
        if self.degree < 1:
            raise ValueError("degree-0 polynomial has no trace coefficient")
        return self.ring.cell(-self.coefficients[-2])

    def render(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.ring.render(self.coefficients[k])
            t_part = "t" if k == 1 else (f"t^{k}" if k > 1 else "")
            parts.append(f"({c})*{t_part}" if t_part else f"({c})")
        return " + ".join(parts)


def char_poly(f: CentralFunction, x) -> CharPoly:
    """Characteristic polynomial det(t - x) of a pseudocharacter.

    By symmetry and multilinearity, the t^k coefficient is (1/d!) *
    C(d,k) * form_d(-x, .., -x, 1, .., 1) with k units.  Peeling each
    unit (form_n(z, 1) = (f(1) - (n-1)) * form_{n-1}(z)) leaves the
    padding product prod_{i=d-k..d-1} (f(1) - i) times form_{d-k}(-x,
    .., -x), form_0 = 1, so one evaluation of form_d on d copies of -x
    (Newton's identities from d = 4 on) memoizes the whole chain.  f(1)
    is f on the unit, not the declared d: a trace declared with another
    dimension gets a polynomial that is not monic; a pseudocharacter's
    is monic, trace coefficient -f(x).
    """
    d, ring = f.dim, f.ring
    _check_arity(d)
    inv = ring.inverse_of_factorial(d)
    one = x.one()
    ev = _FormEvaluator(f)
    key = (ev.intern(ev.arg(-x)),)
    chain = [ev.value(key * (d - k)) for k in range(d)] + [1]
    f1 = ev.f_cells[ev.intern(ev.arg(one))]
    coeffs, pad = [], 1
    for k in range(d + 1):  # chain[k] is form_{d-k}(-x, .., -x)
        coeffs.append(ring.cell(inv * (math.comb(d, k) * pad * chain[k])))
        pad = pad * (f1 - (d - 1 - k))
    return CharPoly(ring, tuple(coeffs))


def char_poly_interpolated(f: CentralFunction, x) -> CharPoly:
    """Cross-check path for ``char_poly``: evaluate det on the pencil t - x
    at the d+1 points t = 0..d and interpolate in Newton form.

    The k-th forward difference of the values at 0, times (k!)^-1, is the
    coefficient of t(t-1)..(t-k+1), and (k!)^-1 is (d!)^-1 times the
    integer d!/k! = perm(d, d - k), so no other division is needed.
    Horner's rule expands that Newton basis.
    """
    d = f.dim
    ring = f.ring
    _check_arity(d)
    inv = ring.inverse_of_factorial(d)
    one = x.one()
    pencils = [-x]  # t - x at t = 0..d, each the last one plus 1
    for _ in range(d):
        pencils.append(pencils[-1] + one)
    diffs = [determinant(f, pencil) for pencil in pencils]
    for k in range(d):  # diffs[j] becomes the j-th forward difference at 0
        for j in range(d, k, -1):
            diffs[j] = ring.cell(diffs[j] - diffs[j - 1])
    poly = []
    for k in range(d, -1, -1):  # poly * (t - k) + diffs[k] / k!
        newton = inv * (math.perm(d, d - k) * diffs[k])
        poly = [ring.cell(a - k * b)
                for a, b in zip([newton] + poly, poly + [0])]
    return CharPoly(ring, tuple(poly))
