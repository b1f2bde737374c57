"""Scalar backends: exactness, canonical forms, and ring axioms."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pseudodet import (ConfigError, MismatchError, ModRing,
                       NotInvertibleError, Poly, PolyRing, QPOLY, QQ,
                       RationalRing, Ring, ring_from_spec)

rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 24)),
)
# a mod-m scalar is its canonical int in [0, m)
residues7 = st.integers(-100, 100).map(ModRing(7).cell)
residues12 = st.integers(-100, 100).map(ModRing(12).cell)


def poly_from(spec):
    """Build a polynomial from [(coeff, var, exp), ...] term specs."""
    acc = Poly.constant(0)
    for coeff, var, exp in spec:
        term = Poly.constant(coeff)
        for _ in range(exp):
            term = term * Poly.variable(var)
        acc = acc + term
    return acc


polys = st.builds(
    poly_from,
    st.lists(st.tuples(st.integers(-5, 5), st.sampled_from("uv"),
                       st.integers(0, 2)), max_size=3))


class TestExamples:
    def test_fraction_sum(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_residue_product(self):
        assert ModRing(7).cell(3 * 5) == 1

    def test_poly_square(self):
        u = Poly.variable("u")
        assert (u * u).render() == "u^2"

    def test_inverse_of_factorial(self):
        assert QQ.inverse_of_factorial(3) == Fraction(1, 6)
        assert ModRing(7).inverse_of_factorial(3) == 6
        with pytest.raises(NotInvertibleError):
            ModRing(6).inverse_of_factorial(3)


PROTOCOL_RINGS = [QQ, ModRing(7), ModRing(12), QPOLY]


class TestProtocolWrittenOnce:
    @pytest.mark.parametrize("ring", PROTOCOL_RINGS, ids=repr)
    def test_inverse_of_factorial_inverts_d_factorial(self, ring):
        for d in range(8):
            try:
                inv = ring.inverse_of_factorial(d)
            except NotInvertibleError:
                assert isinstance(ring, ModRing)
                assert math.gcd(math.factorial(d), ring.modulus) != 1
                continue
            assert ring.cell(inv * math.factorial(d)) == ring.one()

    def test_inverse_of_factorial_names_d_and_the_modulus(self):
        with pytest.raises(NotInvertibleError,
                           match=r"^3! not invertible mod 12$"):
            ModRing(12).inverse_of_factorial(3)

    def test_no_division_or_cell_rendering_in_the_protocol(self):
        # a scalar is its own cell: no boundary to cross, no second spelling
        # and no second canonicalizer beside cell
        for cls in (type(QQ), ModRing, type(QPOLY)):
            for name in ("div", "render_cell", "cell_to_scalar", "from_int",
                         "reduce"):
                assert not hasattr(cls, name)


class TestCanonicalForms:
    def test_fractions_lowest_terms_positive_denominator(self):
        v = Fraction(6, -4)
        assert (v.numerator, v.denominator) == (-3, 2)
        assert QQ.cell(Fraction(4, 2)) == 2
        assert isinstance(QQ.cell(Fraction(4, 2)), int)

    def test_residue_range(self):
        assert ModRing(7).cell(-1) == 6
        assert ModRing(7).cell(15) == 1
        assert 0 <= ModRing(12).cell(-100) < 12
        assert type(ModRing(7).cell(Fraction(1, 2))) is int

    def test_int_subclass_residue_is_a_plain_int(self):
        class Int(int):
            pass

        cell = ModRing(7).cell(Int(9))
        assert cell == 2 and type(cell) is int

    def test_mod_cell_of_fraction(self):
        assert ModRing(7).cell(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
        with pytest.raises(NotInvertibleError):
            ModRing(6).cell(Fraction(1, 2))

    def test_poly_zero_terms_pruned(self):
        u = Poly.variable("u")
        assert (u - u) == 0
        assert (u - u).render() == "0"


class TestErrors:
    def test_backend_mismatch(self):
        # another backend's scalar is refused where it enters a ring
        with pytest.raises(TypeError):
            ModRing(7).cell(Poly.variable("u"))
        with pytest.raises(TypeError):
            QQ.cell(Poly.variable("u"))

    @pytest.mark.parametrize("op", [
        lambda x: x + "a", lambda x: x - "a", lambda x: "a" - x,
        lambda x: x * "a", lambda x: x < "a", lambda x: x + True],
        ids=["add", "sub", "rsub", "mul", "lt", "add-bool"])
    def test_poly_with_a_non_scalar_operand(self, op):
        # a str or a bool is no rational scalar: every operator declines
        with pytest.raises(TypeError):
            op(Poly.variable("u"))

    def test_poly_compares_and_subtracts_from_scalars_only(self):
        u = Poly.variable("u")
        assert (u == "a") is False
        assert 1 - u == Poly.constant(1) + (-u)

    def test_base_ring_has_no_cell(self):
        # Ring is the protocol; each backend supplies its own cell
        with pytest.raises(NotImplementedError):
            Ring.cell(QQ, 1)

    def test_bad_ring_spec(self):
        with pytest.raises(ValueError):
            ring_from_spec("mod:x")
        with pytest.raises(ValueError):
            ring_from_spec("float")

    @pytest.mark.parametrize("modulus", [7.5, 7.0, True, Fraction(7), "7"])
    def test_modulus_must_be_a_plain_int(self, modulus):
        with pytest.raises(ValueError, match="^modulus must be an int, got "):
            ModRing(modulus)

    @pytest.mark.parametrize("modulus", [1, 0, -7])
    def test_modulus_must_be_at_least_two(self, modulus):
        with pytest.raises(ValueError, match="^modulus must be >= 2, got "):
            ModRing(modulus)

    @pytest.mark.parametrize("name", [1, "", None, ("x",)])
    def test_variable_name_must_be_a_nonempty_str(self, name):
        with pytest.raises(ValueError, match="variable names must be"):
            Poly.variable(name)
        with pytest.raises(ValueError, match="variable names must be"):
            Poly([(((name, 1),), 1)])

    def test_ring_spec_roundtrip(self):
        assert ring_from_spec("rational") == QQ
        assert ring_from_spec("mod:101") == ModRing(101)

    _LONG_SPEC = "mod:" + "7" * 5000  # past int()'s 4,300-digit limit

    @pytest.mark.parametrize("spec,message", [
        ("mod:1", "modulus must be >= 2, got 1"),
        ("mod:0", "modulus must be >= 2, got 0"),
        ("mod:x", "bad modulus in ring spec 'mod:x'"),
        ("Q", "unknown ring spec 'Q'")] + [
        (spec, f"bad modulus in ring spec {spec!r}")
        for spec in ("mod: 7", "mod:7 ", "mod:+7", "mod:07", "mod:00",
                     "mod:\u0667", "mod:\u00b2", "mod:7_0", "mod:-3", "mod:")
    ] + [pytest.param(_LONG_SPEC, f"bad modulus in ring spec {_LONG_SPEC!r}",
                      id="mod-past-the-digit-limit")])
    def test_bad_ring_spec_is_a_config_error(self, spec, message):
        """mod 7 has the one spelling mod:7: a space, sign, leading zero,
        non-ASCII digit or "_" would run mod 7 (or mod 70) under another
        name in the report."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ring_from_spec(spec)

    @pytest.mark.parametrize("value", [2.5, True, Decimal(3), "3"])
    def test_residue_value_must_be_a_plain_int(self, value):
        # a mod-7 scalar is an int (a Fraction is converted); a float, bool
        # or foreign object is refused
        message = f"^not a mod-7 scalar: {re.escape(repr(value))}$"
        with pytest.raises(MismatchError, match=message):
            ModRing(7).cell(value)


class TestCanonicalRings:
    """One object per ring: equal rings are the same object."""

    def test_building_a_ring_again_gives_the_same_object(self):
        assert ModRing(7) is ModRing(7)
        assert ModRing(modulus=7) is ModRing(7)
        assert ring_from_spec("mod:7") is ModRing(7)
        assert ring_from_spec("rational") is QQ
        assert RationalRing() is QQ
        assert PolyRing() is QPOLY
        assert ModRing(7) is not ModRing(11)

    @pytest.mark.parametrize("modulus", [7.0, True])
    def test_validation_comes_before_the_lookup(self, modulus):
        # 7.0 == 7 hash alike, so a lookup before validating would hand
        # back ModRing(7); True == 1 likewise
        ModRing(7)
        with pytest.raises(ValueError, match="^modulus must be an int, got "):
            ModRing(modulus)

    def test_equality_and_hash_are_identity(self):
        assert Ring.__hash__ is object.__hash__
        assert Ring.__eq__ is object.__eq__
        assert hash(ModRing(7)) == object.__hash__(ModRing(7))


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0


def _mod_ring_axioms(r, a, b, c):
    """The ring axioms on canonical residues, each result reduced by
    ``r``, the ring's ``cell``."""
    assert r(r(a + b) + c) == r(a + r(b + c))
    assert r(r(a * b) * c) == r(a * r(b * c))
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(a * b) == r(b * a)
    assert r(a + 0) == a and r(a * 1) == a
    assert r(a + r(-a)) == 0


@given(residues7, residues7, residues7)
def test_mod7_ring_axioms(a, b, c):
    _mod_ring_axioms(ModRing(7).cell, a, b, c)


@given(residues12, residues12, residues12)
def test_mod12_ring_axioms(a, b, c):
    # a non-prime modulus is still a commutative ring
    _mod_ring_axioms(ModRing(12).cell, a, b, c)


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + Poly.constant(0) == a
    assert a * Poly.constant(1) == a


@given(st.integers(-100, 100).filter(bool))
def test_mod7_inverses(a):
    # the inverse of a is the cell of 1/a
    m7 = ModRing(7)
    if a % 7:
        assert m7.cell(a * m7.cell(Fraction(1, a))) == 1
    else:
        with pytest.raises(NotInvertibleError):
            m7.cell(Fraction(1, a))


@given(polys, polys)
def test_poly_order_is_consistent(a, b):
    # exactly one of <, ==, > holds
    assert (a < b) + (a == b) + (b < a) == 1


def test_poly_rendering_deterministic():
    u, v = Poly.variable("u"), Poly.variable("v")
    p = 2 * (u * u) * v + u + Fraction(3, 2)
    assert p.render() == "3/2 + u + 2*u^2*v"


def test_ring_descriptions():
    assert QQ.describe() == "rational"
    assert ModRing(7).describe() == "mod 7"
    assert QPOLY.describe() == "poly"
    assert ModRing(7).render(3) == "3 mod 7"


def test_mod_render_takes_its_own_scalars():
    """An int renders as its residue; a bool, a float or another
    backend's scalar is refused, not printed."""
    m7 = ModRing(7)
    assert m7.render(10) == "3 mod 7" and m7.render(-1) == "6 mod 7"
    for bad in (True, 2.5, Poly.variable("u")):
        with pytest.raises(MismatchError):
            m7.render(bad)


# --- canonical form of Poly results -----------------------------------------

monomials = st.lists(
    st.tuples(st.sampled_from("uvw"), st.integers(1, 3)),
    max_size=3, unique_by=lambda ve: ve[0]).map(lambda m: tuple(sorted(m)))
canonical_polys = st.dictionaries(monomials, rationals, max_size=4).map(
    lambda d: Poly(d.items()))


def accumulate(op, a, b):
    """The dict of monomials to coefficients that ``op`` yields, before
    canonicalization, built without any Poly arithmetic."""
    if op == "*":
        acc = {}
        for m1, c1 in a.terms:
            for m2, c2 in b.terms:
                exps = dict(m1)
                for var, e in m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return acc
    acc = dict(a.terms)
    sign = 1 if op == "+" else -1
    for mono, coeff in b.terms:
        acc[mono] = acc.get(mono, 0) + sign * coeff
    return acc


@pytest.mark.parametrize("op", ["+", "-", "*"])
@given(canonical_polys, canonical_polys)
def test_poly_results_are_canonical(op, a, b):
    """Sorted terms, no zero coefficient, no integral Fraction, and the
    same value and coefficient types as the validating constructor."""
    got = {"+": a + b, "-": a - b, "*": a * b}[op]
    monos = [mono for mono, _ in got.terms]
    assert monos == sorted(set(monos))
    for _, coeff in got.terms:
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction
                                      and coeff.denominator != 1)
    expected = Poly(accumulate(op, a, b).items())
    assert got == expected
    assert [(m, type(c)) for m, c in got.terms] == \
        [(m, type(c)) for m, c in expected.terms]
