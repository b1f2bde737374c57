"""Immutable values: every value class refuses attribute assignment and
deletion, keeps its hash (computed from the fields on each call), and
hashes equal values built by different paths equally."""

from fractions import Fraction

import pytest

from pseudodet import (CentralFunction, CharPoly, GroupAlgebraElement,
                       GroupTable, LetterHom, Matrix, ModRing, Multiset, Poly,
                       QPOLY, QQ, RationalRing, SuiteConfig, Word,
                       check_pseudocharacter, matrix_trace, ring_from_spec,
                       run_suite, word)
from pseudodet.rings import FrozenValue, Ring
from pseudodet.verify import CheckRecord

C3 = GroupTable.cyclic(3)


def samples():
    """(class name, instance, one of its attributes) for each value class."""
    return [
        ("Poly", Poly.variable("x"), "terms"),
        ("Matrix", Matrix(QQ, [[1, 2], [3, 4]]), "rows"),
        ("Word", word("a*b"), "letters"),
        ("GroupTable", C3, "table"),
        ("GroupAlgebraElement", GroupAlgebraElement(C3, QQ, [1, 2, 3]),
         "coeffs"),
        ("Multiset", Multiset([word("a"), word("b")]), "entries"),
        ("SuiteConfig", SuiteConfig("det-mult", dim=2), "seed"),
        ("CheckRecord", CheckRecord("c", 0, ("x",), "1", "1", True, False),
         "ok"),
        ("CharPoly", CharPoly(QQ, (1, 0, 1)), "coefficients"),
        ("ModRing", ModRing(7), "modulus"),
        ("CentralFunction", matrix_trace(QQ, 2), "ring"),
        ("LetterHom", LetterHom({"a": word("b")}), "mapping"),
    ]


@pytest.mark.parametrize("name,value,attr", samples(),
                         ids=[s[0] for s in samples()])
def test_assignment_is_refused(name, value, attr):
    before = getattr(value, attr)
    for target in (attr, "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, target, None)
    assert getattr(value, attr) == before


@pytest.mark.parametrize("name,value,attr", samples(),
                         ids=[s[0] for s in samples()])
def test_deletion_is_refused(name, value, attr):
    before, text = getattr(value, attr), repr(value)
    for target in (attr, "_hash", "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, target)
    assert getattr(value, attr) == before
    assert repr(value) == text


@pytest.mark.parametrize("name,value,attr", samples(),
                         ids=[s[0] for s in samples()])
def test_cached_hash_cannot_be_overwritten(name, value, attr):
    """No value stores its hash: assigning ``_hash`` is refused, as for
    any attribute, and the hash stays the one of the fields."""
    h = hash(value)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value._hash = h + 1
    assert hash(value) == h


def _equal_pairs():
    """(built by the public constructor, built by a product or ``_make``)."""
    x, y, u = Poly.variable("x"), Poly.variable("y"), Poly.variable("u")
    m = Matrix(QQ, [[1, 1], [0, 1]])
    g1 = GroupAlgebraElement.basis(C3, QQ, 1)
    return [
        ("Poly", Poly(((((("x", 1), ("y", 1)), 1),))), x * y),
        ("Poly unsorted terms", Poly([((("u", 1),), 1), ((), 2)]), u + 2),
        ("Poly zero coefficient", Poly([((), 0), ((("u", 1),), 0)]),
         Poly.constant(0)),
        ("Poly repeated monomial", Poly([((("u", 1),), 1), ((("u", 1),), 2)]),
         3 * u),
        ("Poly unsorted monomial", Poly([((("y", 1), ("x", 2)), 1)]),
         x * x * y),
        ("Poly Fraction(4, 2)", Poly([((), Fraction(4, 2))]),
         Poly.constant(2)),
        ("Matrix", Matrix(QQ, [[1, 2], [0, 1]]), m * m),
        ("Matrix._make", Matrix(QQ, [[1, 2], [0, 1]]),
         Matrix._make(QQ, 2, ((1, 2), (0, 1)))),
        ("Word", Word(["a", "b"]), word("a") * word("b")),
        ("GroupTable", GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), C3),
        ("GroupAlgebraElement", GroupAlgebraElement(C3, QQ, [0, 0, 1]),
         g1 * g1),
        ("Multiset", Multiset([word("b"), word("a")]),
         Multiset._make((word("a"), word("b")))),
        ("ModRing", ModRing(7), ring_from_spec("mod:7")),
        ("LetterHom in another order",
         LetterHom({"a": m * m, "b": m}),
         LetterHom({"b": Matrix(QQ, [[1, 1], [0, 1]]), "a": m * m})),
    ]


@pytest.mark.parametrize("name,built,fast", _equal_pairs(),
                         ids=[p[0] for p in _equal_pairs()])
def test_equal_values_hash_equal(name, built, fast):
    assert built == fast
    assert hash(built) == hash(fast)
    assert len({built, fast}) == 1


class TestFrozenRecord:
    """Records: value classes built from their fields by calling the
    class."""

    def test_fields_by_position_keyword_and_default(self):
        """``SuiteConfig``'s own ``__new__`` takes keywords and defaults."""
        cfg = SuiteConfig("charpoly", dim=3)
        assert cfg == SuiteConfig("charpoly", "rational", 3)
        assert cfg.fields() == {
            "suite": "charpoly", "ring": "rational", "dim": 3,
            "trials": 50, "seed": 0, "bound": 5, "budget": 10**7}
        assert repr(CharPoly(QQ, (1,))) == \
            "CharPoly(ring=rational, coefficients=(1,))"
        with pytest.raises(TypeError, match="'suite'"):
            SuiteConfig(dim=3)
        with pytest.raises(TypeError, match="'bogus'"):
            SuiteConfig("charpoly", bogus=1)

    @pytest.mark.parametrize("args,kwargs", [
        ((), {}), (("a",), {"bogus": 1}), (tuple(range(9)), {})])
    def test_missing_unknown_or_extra_fields_are_refused(self, args, kwargs):
        """A class without its own ``__new__`` takes exactly its fields,
        by position: no default and no keyword."""
        match = ("'bogus'" if kwargs else "^CheckRecord takes the fields "
                 "name, trial, inputs, lhs, rhs, ok, negative_control$")
        with pytest.raises(TypeError, match=match):
            CheckRecord(*args, **kwargs)

    def test_equal_only_within_one_class(self):
        a = CheckRecord("c", 0, (), "1", "1", True, False)
        assert a != CheckRecord("c", 0, (), "1", "1", True, True)
        assert a != ("c", 0, (), "1", "1", True, False)

    def test_validation_runs_on_construction(self):
        with pytest.raises(ValueError, match="positive integer"):
            CentralFunction(len, 0, QQ)


def test_poly_refuses_exponents_below_one():
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        Poly([((("u", 0),), 1)])


@pytest.mark.parametrize("image", [word("b"), Matrix(QQ, [[2]])],
                         ids=["word", "matrix"])
def test_letter_hom_images_are_read_only(image):
    """The images a ``LetterHom`` checked are the ones it maps with: its
    mapping refuses item assignment and deletion."""
    hom = LetterHom({"a": image})
    with pytest.raises(TypeError):
        hom.mapping["a"] = word("z")
    with pytest.raises(TypeError):
        del hom.mapping["a"]
    assert hom(word("a")) == image
    assert hom == LetterHom({"a": image})
    assert hash(hom) == hash(LetterHom({"a": image}))


class TestRingDescriptors:
    def test_equal_by_backend_and_modulus(self):
        assert QQ == RationalRing()
        assert QQ != QPOLY
        assert ModRing(7) != ModRing(11)
        assert ModRing(modulus=7) == ModRing(7)

    def test_modulus_is_validated(self):
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            ModRing(1)


def _value_classes(cls=FrozenValue):
    """Every FrozenValue subclass the package defines, recursively."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("pseudodet."):
            yield sub
        yield from _value_classes(sub)


class TestEqualityRule:
    """One rule: equal when of one class with equal ``_key``s.  A class
    may override ``__eq__`` only together with ``__hash__``."""

    def test_every_value_class_is_hashable(self):
        """A built value of every class hashes, a ``run_suite`` report
        included."""
        classes = set(_value_classes()) - {Ring}  # Ring: no backend
        assert {"ModRing", "Matrix", "CheckReport",
                "CharPoly", "SuiteReport"} <= {c.__name__ for c in classes}
        report = check_pseudocharacter(matrix_trace(QQ, 1),
                                       [Matrix(QQ, [[2]])])
        built = [value for _, value, _ in samples()] + [
            QQ, QPOLY, report,
            run_suite(SuiteConfig("det-mult", trials=1))]
        assert {type(value) for value in built} == classes
        for value in built:
            assert type(hash(value)) is int, type(value).__name__

    def test_own_eq_comes_with_own_hash(self):
        own_eq = [c for c in _value_classes() if "__eq__" in vars(c)]
        assert {c.__name__ for c in own_eq} == {"Ring", "Poly"}
        for cls in own_eq:
            assert "__hash__" in vars(cls), cls.__name__

    def test_char_polys_over_different_rings_differ(self):
        mod7 = ModRing(7)
        coeffs = tuple(map(mod7.cell, (8, -7, 15)))
        assert coeffs == (1, 0, 1)
        assert CharPoly(QQ, (1, 0, 1)) != CharPoly(mod7, coeffs)
        assert CharPoly(mod7, coeffs) == CharPoly(ModRing(7), coeffs)
