"""Algebra and semigroup elements: matrices, free words, group algebras.

Three element backends share a small informal protocol: ``*`` is the
semigroup product, ``==``/``hash`` are value-based, and ``<`` is a strict
total order used to canonicalize multisets.  The orders are:

* words: by (length, then lexicographically on the letter tuple);
* matrices: row-major lexicographic comparison of entries;
* group-algebra elements: lexicographic on the dense coefficient vector.

Matrices and group-algebra elements additionally support ``+``, unary ``-``
and ``.scale(scalar)`` (they live in an algebra, not just a semigroup), and
have a multiplicative unit ``.one()``.  Free words are a semigroup without
unit: ``.one()`` raises.  All values are immutable and safe to share across
threads.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from types import MappingProxyType

from .errors import GroupTableError, MismatchError, UnitlessError, UnknownLetterError
from .rings import FrozenValue, ModRing, Ring


class Matrix(FrozenValue):
    """Immutable square matrix over a scalar ring."""

    __slots__ = _fields = ("ring", "n", "rows")

    def __new__(cls, ring: Ring, rows):
        cell = ring.cell
        # rows of canonical cells are kept: a rebuilt matrix shares them
        if not (type(rows) is tuple and all(
                type(row) is tuple and all(cell(v) is v for v in row)
                for row in rows)):
            rows = tuple(tuple(map(cell, row)) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        return cls._make(ring, n, rows)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        _check_size(n)
        one, zero = ring.cell(1), ring.cell(0)
        return cls._make(ring, n, tuple(
            (zero,) * i + (one,) + (zero,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def zero(cls, ring: Ring, n: int) -> "Matrix":
        _check_size(n)
        z = ring.cell(0)
        return cls._make(ring, n, ((z,) * n,) * n)

    def _check_peer(self, other):
        if (other.__class__ is not Matrix or other.ring is not self.ring
                or other.n != self.n):
            _matrix_rows(self.ring, self.n, other)

    def __mul__(self, other):
        self._check_peer(other)
        ring, n = self.ring, self.n
        rows = _kernels(ring, n)[0](self.rows, other.rows)
        return Matrix._make(ring, n, rows)

    def __add__(self, other):
        self._check_peer(other)
        ring, n = self.ring, self.n
        rows = _kernels(ring, n)[3](self.rows, other.rows)
        return Matrix._make(ring, n, rows)

    def __neg__(self):
        ring = self.ring
        rows = tuple(tuple(ring.cell(-a) for a in row) for row in self.rows)
        return Matrix._make(ring, self.n, rows)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "Matrix":
        ring = self.ring
        c = ring.cell(scalar)
        rows = tuple(tuple(ring.cell(c * a) for a in row)
                     for row in self.rows)
        return Matrix._make(ring, self.n, rows)

    def one(self) -> "Matrix":
        return Matrix.identity(self.ring, self.n)

    def trace(self):
        return self.ring.cell(_kernels(self.ring, self.n)[1](self.rows))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __lt__(self, other):
        self._check_peer(other)
        return self.rows < other.rows

    def render(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(map(str, row)) + "]" for row in self.rows) + "]"

    def __repr__(self):
        return f"Matrix({self.ring.describe()}, {self.render()})"


def _check_size(n) -> None:
    """Refuse a matrix size that is not an int (a bool is not one), or
    is below 1 with ``Matrix``'s message for an empty shape."""
    if type(n) is not int:
        raise ValueError(f"matrix size must be an int, got {n!r}")
    if n < 1:
        raise ValueError("matrix must be square and nonempty")


def _matrix_rows(ring: Ring, n: int, other):
    """The rows of ``other``, which must be an n x n matrix over
    ``ring``; MismatchError otherwise."""
    if not isinstance(other, Matrix):
        raise MismatchError(f"expected a matrix, got {other!r}")
    if other.ring is not ring:
        raise MismatchError(
            f"ring mismatch: {ring.describe()} vs {other.ring.describe()}")
    if n != other.n:
        raise MismatchError(f"size mismatch: {n} vs {other.n}")
    return other.rows


#: the largest size whose product cells are written out, not ring.dot's
_UNROLLED = 6


@cache
def _kernels(ring: Ring, n: int):
    """The ``(product, trace, pair_trace, add)`` functions on the row
    tuples of n x n matrices over ``ring``, compiled on first use of each
    (ring, size).

    ``product(x, y)`` gives the rows of the product, each cell the one
    ``ring.dot`` gives, in value and in type; ``trace(x)`` gives the
    diagonal sum; ``pair_trace(x, y)`` gives the trace of the product,
    the sum of every x_ik * y_ki, in n^2 multiplications and without
    building the product; ``add(x, y)`` gives the rows of the sum.  None
    checks its arguments.  A mod-m value is reduced by one inline ``% m``
    (over a whole cell, or a whole trace); other values are left as
    computed, so an integral rational may be a ``Fraction``, not
    ``ring.cell``'s ``int``.  Past ``_UNROLLED`` the product and the pair
    trace are ``ring.dot`` calls, and the sum a loop over the cells.
    """
    cell = "({}) % m" if isinstance(ring, ModRing) else "{}"
    idx = range(n)

    def rows(cell_of):
        """Source of the row tuples whose (i, j) cell is cell_of(i, j)."""
        return "(" + "".join("(" + "".join(
            cell_of(i, j) + ", " for j in idx) + "), " for i in idx) + ")"
    if n <= _UNROLLED:
        unpack = (f"    {rows('x{}_{}'.format)} = x\n"
                  f"    {rows('y{}_{}'.format)} = y\n")
        product = unpack + "    return " + rows(
            lambda i, j: cell.format(" + ".join(
                f"x{i}_{k} * y{k}_{j}" for k in idx))) + "\n"
        pair_trace = unpack + "    return " + cell.format(" + ".join(
            f"x{i}_{k} * y{k}_{i}" for i in idx for k in idx)) + "\n"
        add = unpack + "    return " + rows(
            lambda i, j: cell.format(f"x{i}_{j} + y{i}_{j}")) + "\n"
    else:
        product = ("    cols = tuple(zip(*y))\n    return tuple(tuple("
                   "dot(row, col) for col in cols) for row in x)\n")
        pair_trace = ("    return dot(chain.from_iterable(x), "
                      "chain.from_iterable(zip(*y)))\n")
        add = ("    return tuple(tuple(" + cell.format("a + b")
               + " for a, b in zip(r, s)) for r, s in zip(x, y))\n")
    trace = cell.format(" + ".join(f"x[{i}][{i}]" for i in idx))
    names = {"m": getattr(ring, "modulus", None), "dot": ring.dot,
             "chain": chain}
    exec(f"def product(x, y):\n{product}def trace(x):\n"
         f"    return {trace}\ndef pair_trace(x, y):\n{pair_trace}"
         f"def add(x, y):\n{add}", names)
    return names["product"], names["trace"], names["pair_trace"], names["add"]


class Word(FrozenValue):
    """A nonempty word in a free semigroup; letters are string identifiers.

    The free semigroup has no unit: the empty word is not a valid element.
    """

    __slots__ = _fields = ("letters",)

    def __new__(cls, letters):
        letters = tuple(letters)
        if not letters or not all(isinstance(l, str) and l for l in letters):
            raise ValueError("a word is a nonempty sequence of letter ids")
        return cls._make(letters)

    def __mul__(self, other):
        if not isinstance(other, Word):
            raise MismatchError(f"expected a word, got {other!r}")
        return Word._make(self.letters + other.letters)

    def one(self):
        raise UnitlessError("the free semigroup has no unit element")

    def __len__(self):
        return len(self.letters)

    def __lt__(self, other):
        if not isinstance(other, Word):
            raise MismatchError(f"expected a word, got {other!r}")
        a, b = self.letters, other.letters
        if len(a) != len(b):
            return len(a) < len(b)
        return a < b

    def render(self) -> str:
        return "*".join(self.letters)

    def __repr__(self):
        return f"Word({self.render()})"


def word(text: str) -> Word:
    """Build a word from a compact ``a*b*c`` string."""
    return Word(text.split("*"))


class GroupTable(FrozenValue):
    """A finite group given by an explicit multiplication table.

    ``table`` is n rows of n 0-based indices; row i, column j holds the
    index of g_i * g_j, and index 0 is the identity.  Identity behaviour and
    associativity are validated on construction.
    """

    __slots__ = _fields = ("order", "table")

    def __new__(cls, table):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise GroupTableError("table must be square and nonempty")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise GroupTableError(f"entry {v!r} out of range [0,{n})")
        for k in range(n):
            if table[0][k] != k or table[k][0] != k:
                raise GroupTableError("index 0 must act as the identity")
        for i in range(n):
            for j in range(n):
                tij = table[i][j]
                for k in range(n):
                    if table[tij][k] != table[i][table[j][k]]:
                        raise GroupTableError(
                            f"associativity fails at ({i},{j},{k})")
        return cls._make(n, table)

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"GroupTable(order={self.order})"


class GroupAlgebraElement(FrozenValue):
    """Element of the group algebra of a finite group over a scalar ring.

    Stored as a dense coefficient vector indexed by group element; the
    product is convolution through the multiplication table.  Intended for
    small groups (order <= 24) only.
    """

    __slots__ = _fields = ("group", "ring", "coeffs")

    def __new__(cls, group: GroupTable, ring: Ring, coeffs):
        coeffs = tuple(ring.cell(v) for v in coeffs)
        if len(coeffs) != group.order:
            raise ValueError(
                f"expected {group.order} coefficients, got {len(coeffs)}")
        return cls._make(group, ring, coeffs)

    @classmethod
    def basis(cls, group, ring, index: int) -> "GroupAlgebraElement":
        if type(index) is not int or not 0 <= index < group.order:
            raise ValueError(f"basis index {index} is not in "
                             f"0..{group.order - 1}")
        return cls(group, ring, (int(i == index) for i in range(group.order)))

    def _check_peer(self, other):
        if not isinstance(other, GroupAlgebraElement):
            raise MismatchError(f"expected a group-algebra element, got {other!r}")
        if self.group is not other.group and self.group != other.group:
            raise MismatchError("group mismatch")
        if self.ring is not other.ring:
            raise MismatchError(
                f"ring mismatch: {self.ring.describe()} vs {other.ring.describe()}")

    def __mul__(self, other):
        self._check_peer(other)
        ring, table = self.ring, self.group.table
        out = [ring.cell(0)] * self.group.order
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            row = table[i]
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                out[row[j]] += a * b
        return GroupAlgebraElement._make(
            self.group, ring, tuple(ring.cell(v) for v in out))

    def __add__(self, other):
        self._check_peer(other)
        cell = self.ring.cell
        return GroupAlgebraElement._make(
            self.group, self.ring,
            tuple(cell(a + b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        ring = self.ring
        return GroupAlgebraElement._make(
            self.group, ring, tuple(ring.cell(-a) for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "GroupAlgebraElement":
        ring = self.ring
        c = ring.cell(scalar)
        return GroupAlgebraElement._make(
            self.group, ring, tuple(ring.cell(c * a) for a in self.coeffs))

    def one(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement.basis(self.group, self.ring, 0)

    def coefficient(self, index: int):
        return self.coeffs[index]

    def __lt__(self, other):
        self._check_peer(other)
        return self.coeffs < other.coeffs

    def render(self) -> str:
        parts = [f"{c}*g{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"GroupAlgebraElement({self.render()})"


class LetterHom(FrozenValue):
    """Semigroup homomorphism out of a free semigroup, given on letters.

    A word maps to the product of its letters' images, so multiplicativity
    holds by construction.  The images, all of one backend, are read-only.
    """

    __slots__ = _fields = ("mapping",)

    def __new__(cls, mapping: dict):
        mapping = dict(mapping)
        if not mapping:
            raise ValueError("a letter assignment must be nonempty")
        first, *rest = mapping.values()
        if isinstance(first, Word):
            if not all(isinstance(img, Word) for img in rest):
                raise MismatchError("mixed image backends")
        elif isinstance(first, (Matrix, GroupAlgebraElement)):
            for img in rest:
                first._check_peer(img)
        else:
            raise MismatchError(f"unsupported image {first!r}")
        return cls._make(MappingProxyType(mapping))

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __call__(self, w: Word):
        mapping = self.mapping
        try:
            out = mapping[w.letters[0]]
            for letter in w.letters[1:]:
                out = out * mapping[letter]
        except KeyError as exc:
            raise UnknownLetterError(f"letter {exc.args[0]!r} has no image") from None
        return out

    def __repr__(self):
        inside = ", ".join(f"{k}->{v!r}" for k, v in sorted(self.mapping.items()))
        return f"LetterHom({inside})"
