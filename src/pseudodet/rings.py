"""Exact scalar arithmetic: rationals, residues mod m, sparse polynomials.

Every scalar backend is exact; there is no floating point anywhere in the
package.  Three backends are provided:

* rational   -- arbitrary-precision rationals.  Values are plain ``int`` or
  ``fractions.Fraction``; integers are rationals in lowest terms with
  denominator 1, and ``Fraction`` keeps lowest terms with a positive
  denominator by construction.
* mod m      -- residues stored canonically in ``[0, m)`` (:class:`Residue`).
* polynomial -- sparse multivariate commutative polynomials with rational
  coefficients (:class:`Poly`).

A :class:`Ring` descriptor per backend supplies construction, canonical
"cell" values used inside matrices, and the few batched operations that sit
on hot paths.  All values are immutable and all operations are pure, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul

from .errors import ConfigError, MismatchError, NotInvertibleError

RationalLike = (int, Fraction)


def _as_rational(value):
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, RationalLike):
        raise MismatchError(f"not a rational scalar: {value!r}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


class FrozenValue:
    """Base class of the package's immutable values, records and ring
    descriptors.

    A subclass names its attributes in ``_fields``, which is also its
    ``__slots__``.  Calling the class builds a value from the fields, by
    position or keyword; ``_defaults`` fills the ones left out, and
    ``_validate`` may refuse the new value.  ``_make`` sets the fields in
    order without validation; a subclass with its own constructor
    validates, then calls it.  Any later assignment or deletion raises.

    Two values are equal when they are of the same class and their
    ``_key``s are equal; the hash is that of ``_key``, computed once and
    cached in the ``_hash`` slot.  ``_key`` is the field (one field) or
    the tuple of fields, read by a per-class ``operator.attrgetter``
    property.  A subclass that defines ``__eq__`` must bind ``__hash__``
    too (``Ring`` binds both to ``object``'s): defining ``__eq__`` alone
    sets ``__hash__`` to None.

    It stands in for ``dataclasses``, whose import (with ``inspect``,
    ``ast`` and ``dis``) adds about 0.8 MB to every process that imports
    the package; the values need none of its other features.
    """

    __slots__ = ("_hash",)
    _fields = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # (position, slot setter) pairs: the setters write past __setattr__,
        # and indexing by position is cheaper than a zip in every _make.
        cls._setters = tuple(enumerate(getattr(cls, name).__set__
                                       for name in cls._fields))
        cls._key = property(attrgetter(*cls._fields) if cls._fields
                            else lambda self: ())

    def __new__(cls, *args, **kwargs):
        values = dict(cls._defaults)
        values.update(zip(cls._fields, args))
        values.update(kwargs)
        if len(args) > len(cls._fields) or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields "
                            f"{', '.join(cls._fields)}")
        obj = cls._make(*(values[name] for name in cls._fields))
        obj._validate()
        return obj

    @classmethod
    def _make(cls, *values):
        obj = object.__new__(cls)
        _set_hash(obj, None)
        for i, setter in cls._setters:
            setter(obj, values[i])
        return obj

    def _validate(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def fields(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key)
            _set_hash(self, h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.fields().items())
        return f"{type(self).__name__}({fields})"


_set_hash = FrozenValue._hash.__set__


def _check_modulus(modulus) -> None:
    """Refuse a modulus that is not a plain ``int`` of at least 2."""
    if type(modulus) is not int:
        raise ValueError(f"modulus must be an int, got {modulus!r}")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")


class Residue(FrozenValue):
    """An element of Z/mZ, stored as its canonical representative in [0, m).

    Arithmetic with plain integers coerces them into the same modulus;
    arithmetic between residues requires equal moduli.
    """

    __slots__ = _fields = ("value", "modulus")

    def __new__(cls, value: int, modulus: int):
        if type(modulus) is not int or modulus < 2 or type(value) is not int:
            _check_modulus(modulus)
            raise MismatchError(f"not a mod-{modulus} scalar: {value!r}")
        # Every modular scalar operation builds a residue: writing the
        # slots here, not through a second call to _make, saves a third.
        obj = object.__new__(cls)
        _set_hash(obj, None)
        _set_value(obj, value % modulus)
        _set_modulus(obj, modulus)
        return obj

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise MismatchError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Residue(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue(o.value - self.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Residue(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** -exponent
        return Residue(pow(self.value, exponent, self.modulus), self.modulus)

    def inverse(self) -> "Residue":
        g = math.gcd(self.value, self.modulus)
        if g != 1:
            raise NotInvertibleError(
                f"{self.value} is not invertible mod {self.modulus}")
        return Residue(pow(self.value, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.value == o.value

    __hash__ = FrozenValue.__hash__

    def __repr__(self):
        return f"{self.value} mod {self.modulus}"


_set_value = Residue.value.__set__
_set_modulus = Residue.modulus.__set__


def _monomial_mul(a, b):
    exps = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _canonical(acc) -> "Poly":
    """The Poly of a dict of monomials to coefficients that are already
    rationals (``int`` or ``Fraction``), as ``+`` and ``*`` produce them:
    zero coefficients dropped, integral fractions lowered to ``int``."""
    items = []
    for mono, coeff in acc.items():
        if coeff:
            if type(coeff) is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            items.append((mono, coeff))
    items.sort()
    return Poly._make(tuple(items))


class Poly(FrozenValue):
    """Sparse commutative polynomial with rational coefficients.

    Terms map a monomial (a sorted tuple of ``(variable, exponent)`` pairs
    with positive exponents) to a nonzero rational coefficient.  The stored
    term tuple is sorted, which makes polynomials hashable and gives them a
    strict total order (the order on sorted term lists).
    """

    __slots__ = _fields = ("terms",)

    def __new__(cls, terms):
        """The canonical Poly of ``(monomial, coefficient)`` pairs in any
        order: each coefficient checked to be rational and each variable
        name a nonempty ``str``, each monomial's pairs sorted (a repeated
        variable's exponents added), and the coefficients of a repeated
        monomial added."""
        acc = {}
        for mono, coeff in terms:
            coeff = _as_rational(coeff)
            if not all(isinstance(v, str) and v for v, _ in mono):
                raise ValueError(
                    f"variable names must be nonempty str in {mono!r}")
            if any(e < 1 for _, e in mono):
                raise ValueError(f"exponents must be >= 1 in {mono!r}")
            mono = _monomial_mul((), mono)
            acc[mono] = acc.get(mono, 0) + coeff
        return _canonical(acc)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls([(((name, 1),), 1)])

    @classmethod
    def constant(cls, value) -> "Poly":
        value = _as_rational(value)
        if value == 0:
            return cls._make(())
        return cls._make((((), value),))

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, RationalLike) and not isinstance(other, bool):
            return Poly.constant(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for mono, coeff in o.terms:
            acc[mono] = acc.get(mono, 0) + coeff
        return _canonical(acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in o.terms:
                if not m1:
                    mono = m2
                elif not m2:
                    mono = m1
                else:
                    mono = _monomial_mul(m1, m2)
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return _canonical(acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms < o.terms

    __hash__ = FrozenValue.__hash__

    def __repr__(self):
        return self.render()

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = [f"{v}^{e}" if e > 1 else v for v, e in mono]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(str(coeff) + "*" + "*".join(factors))
        return " + ".join(parts)


class Ring(FrozenValue):
    """Descriptor of a scalar backend: an immutable value, and the one
    object of its backend (and modulus), so rings compare by identity.

    ``cell`` values are the internal representation used for matrix and
    group-algebra entries; for the rational and polynomial backends they are
    the scalars themselves, for the modular backend they are plain canonical
    integers (wrapped into :class:`Residue` only at the scalar boundary).
    """

    __slots__ = ()
    kind = "abstract"
    # C-level: a lookup keyed by a ring makes no Python call
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs):
        # validated first: ModRing(7.0) must raise, not find ModRing(7)
        ring = FrozenValue.__new__(cls, *args, **kwargs)
        return _RINGS.setdefault((cls, ring._key), ring)

    def from_int(self, n: int):
        return self.cell_to_scalar(self.cell(n))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def inverse_of_factorial(self, d: int):
        """Return (d!)^-1 as a scalar, or raise NotInvertibleError."""
        return self.cell_to_scalar(self.cell(Fraction(1, math.factorial(d))))

    # matrix-cell protocol ------------------------------------------------
    def cell(self, value):
        raise NotImplementedError

    def cell_to_scalar(self, cell):
        return cell

    def dot(self, row, col):
        return sum(map(mul, row, col))

    def reduce(self, value):
        """The canonical cell of a sum, difference or product of cells."""
        return value

    def render(self, scalar) -> str:
        return str(scalar)

    def __repr__(self):
        return self.describe()

    def describe(self) -> str:
        return self.kind


class RationalRing(Ring):
    """Exact rationals: plain ints plus fractions.Fraction."""

    __slots__ = ()
    kind = "rational"

    def cell(self, value):
        return _as_rational(value)


class ModRing(Ring):
    """Integers mod m; cells are canonical representatives in [0, m)."""

    __slots__ = _fields = ("modulus",)
    kind = "mod"

    def _validate(self):
        _check_modulus(self.modulus)

    def inverse_of_factorial(self, d: int):
        fact = math.factorial(d) % self.modulus
        if math.gcd(fact, self.modulus) != 1:
            raise NotInvertibleError(
                f"{d}! not invertible mod {self.modulus}")
        return Residue(pow(fact, -1, self.modulus), self.modulus)

    def cell(self, value):
        m = self.modulus
        if isinstance(value, Residue):
            if value.modulus != m:
                raise MismatchError(
                    f"modulus mismatch: {m} vs {value.modulus}")
            return value.value
        if isinstance(value, bool):
            raise MismatchError(f"not a mod-{m} scalar: {value!r}")
        if isinstance(value, int):
            return value % m
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            if math.gcd(den, m) != 1:
                raise NotInvertibleError(f"1/{den} does not exist mod {m}")
            return num * pow(den, -1, m) % m
        raise MismatchError(f"not a mod-{m} scalar: {value!r}")

    def cell_to_scalar(self, cell):
        return Residue(cell, self.modulus)

    def dot(self, row, col):
        return sum(map(mul, row, col)) % self.modulus

    def reduce(self, value):
        return value % self.modulus

    def render(self, scalar) -> str:
        if isinstance(scalar, Residue):
            return repr(scalar)
        return f"{scalar % self.modulus} mod {self.modulus}"

    def describe(self) -> str:
        return f"mod {self.modulus}"


class PolyRing(Ring):
    """Sparse multivariate polynomials over the rationals."""

    __slots__ = ()
    kind = "poly"

    def cell(self, value):
        if isinstance(value, Poly):
            return value
        return Poly.constant(value)

    # own entries, not inherited: perfbench/tracer.py wraps each class's
    # dot and render by name
    dot = Ring.dot
    render = Ring.render


#: (class, key) -> the one ring object of that class and key
_RINGS = {}
QQ = RationalRing()
QPOLY = PolyRing()


def ring_from_spec(spec: str) -> Ring:
    """Parse ``rational`` or ``mod:<m>``; ConfigError for any other spec."""
    if spec == "rational":
        return QQ
    if not spec.startswith("mod:"):
        raise ConfigError(f"unknown ring spec {spec!r}")
    try:
        m = int(spec[4:])
    except ValueError:
        raise ConfigError(f"bad modulus in ring spec {spec!r}") from None
    try:
        return ModRing(m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
