"""Scalar backends: exactness, canonical forms, and ring axioms."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pseudodet import (ConfigError, MismatchError, ModRing,
                       NotInvertibleError, Poly, PolyRing, QPOLY, QQ,
                       RationalRing, Residue, Ring, ring_from_spec)

rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 24)),
)
residues7 = st.builds(Residue, st.integers(-100, 100), st.just(7))
residues12 = st.builds(Residue, st.integers(-100, 100), st.just(12))


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
        assert Residue(3, 7) * Residue(5, 7) == Residue(1, 7)

    def test_poly_square(self):
        u = Poly.variable("u")
        assert (u * u).render() == "u^2"

    def test_inverse_of_factorial(self):
        assert QQ.inverse_of_factorial(3) == Fraction(1, 6)
        assert ModRing(7).inverse_of_factorial(3) == Residue(6, 7)
        with pytest.raises(NotInvertibleError):
            ModRing(6).inverse_of_factorial(3)


PROTOCOL_RINGS = [QQ, ModRing(7), ModRing(12), QPOLY]


class TestProtocolWrittenOnce:
    @pytest.mark.parametrize("ring", PROTOCOL_RINGS, ids=repr)
    def test_from_int_is_the_cell_of_n(self, ring):
        for n in range(-3, 9):
            assert ring.from_int(n) == ring.cell_to_scalar(ring.cell(n))

    @pytest.mark.parametrize("ring", PROTOCOL_RINGS, ids=repr)
    def test_inverse_of_factorial_inverts_d_factorial(self, ring):
        for d in range(8):
            try:
                inv = ring.inverse_of_factorial(d)
            except NotInvertibleError:
                assert isinstance(ring, ModRing)
                assert math.gcd(math.factorial(d), ring.modulus) != 1
                continue
            assert inv * ring.from_int(math.factorial(d)) == ring.one()

    def test_inverse_of_factorial_names_d_and_the_modulus(self):
        with pytest.raises(NotInvertibleError,
                           match=r"^3! not invertible mod 12$"):
            ModRing(12).inverse_of_factorial(3)

    def test_no_division_or_cell_rendering_in_the_protocol(self):
        for cls in (type(QQ), ModRing, type(QPOLY)):
            assert not hasattr(cls, "div")
            assert not hasattr(cls, "render_cell")


class TestCanonicalForms:
    def test_fractions_lowest_terms_positive_denominator(self):
        v = Fraction(6, -4)
        assert (v.numerator, v.denominator) == (-3, 2)
        assert QQ.cell(Fraction(4, 2)) == 2
        assert isinstance(QQ.cell(Fraction(4, 2)), int)

    def test_residue_range(self):
        assert Residue(-1, 7).value == 6
        assert Residue(15, 7).value == 1
        assert 0 <= Residue(-100, 12).value < 12

    def test_mod_cell_of_fraction(self):
        assert ModRing(7).cell(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
        with pytest.raises(NotInvertibleError):
            ModRing(6).cell(Fraction(1, 2))

    def test_poly_zero_terms_pruned(self):
        u = Poly.variable("u")
        assert (u - u).is_zero()
        assert (u - u).render() == "0"


class TestResiduePower:
    def test_negative_exponent_is_a_power_of_the_inverse(self):
        assert Residue(3, 7) ** -1 == Residue(5, 7)
        assert Residue(3, 7) ** -2 == Residue(4, 7)
        assert Residue(3, 7) ** 0 == Residue(1, 7)

    def test_negative_exponent_of_a_non_unit(self):
        with pytest.raises(NotInvertibleError, match="not invertible mod 4"):
            Residue(2, 4) ** -1
        with pytest.raises(NotInvertibleError):
            Residue(0, 7) ** -3


class TestErrors:
    def test_modulus_mismatch(self):
        with pytest.raises(MismatchError):
            Residue(1, 7) + Residue(1, 11)
        with pytest.raises(MismatchError):
            Residue(1, 7) == Residue(1, 11)

    def test_backend_mismatch(self):
        with pytest.raises(TypeError):
            Fraction(1, 2) + Residue(1, 7)
        with pytest.raises(TypeError):
            Residue(1, 7) * Fraction(1, 2)

    def test_bad_ring_spec(self):
        with pytest.raises(ValueError):
            ring_from_spec("mod:x")
        with pytest.raises(ValueError):
            ring_from_spec("float")

    # ModRing and Residue share one modulus rule; looping over both keeps
    # each modulus one test.
    @pytest.mark.parametrize("modulus", [7.5, 7.0, True, Fraction(7), "7"])
    def test_modulus_must_be_a_plain_int(self, modulus):
        for build in (ModRing, lambda m: Residue(3, m)):
            with pytest.raises(ValueError,
                               match="^modulus must be an int, got "):
                build(modulus)

    @pytest.mark.parametrize("modulus", [1, 0, -7])
    def test_modulus_must_be_at_least_two(self, modulus):
        for build in (ModRing, lambda m: Residue(3, m)):
            with pytest.raises(ValueError, match="^modulus must be >= 2, got "):
                build(modulus)

    @pytest.mark.parametrize("name", [1, "", None, ("x",)])
    def test_variable_name_must_be_a_nonempty_str(self, name):
        with pytest.raises(ValueError, match="variable names must be"):
            Poly.variable(name)
        with pytest.raises(ValueError, match="variable names must be"):
            Poly([(((name, 1),), 1)])

    def test_ring_spec_roundtrip(self):
        assert ring_from_spec("rational") == QQ
        assert ring_from_spec("mod:101") == ModRing(101)

    @pytest.mark.parametrize("spec,message", [
        ("mod:1", "modulus must be >= 2, got 1"),
        ("mod:x", "bad modulus in ring spec 'mod:x'"),
        ("Q", "unknown ring spec 'Q'")])
    def test_bad_ring_spec_is_a_config_error(self, spec, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ring_from_spec(spec)

    @pytest.mark.parametrize("value", [2.5, True, Fraction(3), "3"])
    def test_residue_value_must_be_a_plain_int(self, value):
        # the message ModRing(7).cell gives for a value it refuses
        message = f"^not a mod-7 scalar: {re.escape(repr(value))}$"
        with pytest.raises(MismatchError, match=message):
            Residue(value, 7)


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


@given(residues7, residues7, residues7)
def test_mod7_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0


@given(residues12, residues12, residues12)
def test_mod12_ring_axioms(a, b, c):
    # a non-prime modulus is still a commutative ring
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + Poly.constant(0) == a
    assert a * Poly.constant(1) == a


@given(residues7)
def test_mod7_inverses(a):
    if a.value != 0:
        assert a * a.inverse() == 1
    else:
        with pytest.raises(NotInvertibleError):
            a.inverse()


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
    assert ModRing(7).render(Residue(3, 7)) == "3 mod 7"


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
