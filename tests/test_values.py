"""Immutable values: every value class refuses attribute assignment and
deletion, keeps its cached hash, and hashes equal values built by different
paths equally."""

import pytest

from pseudodet import (CharPoly, GroupAlgebraElement, GroupTable, Matrix,
                       Multiset, Poly, QQ, Residue, SuiteConfig, Word, word)
from pseudodet.multisets import PartialBijection
from pseudodet.verify import CheckRecord

C3 = GroupTable.cyclic(3)


def samples():
    """(class name, instance, one of its attributes) for each value class."""
    return [
        ("Residue", Residue(3, 7), "value"),
        ("Poly", Poly.variable("x"), "terms"),
        ("Matrix", Matrix(QQ, [[1, 2], [3, 4]]), "rows"),
        ("Word", word("a*b"), "letters"),
        ("GroupTable", C3, "table"),
        ("GroupAlgebraElement", GroupAlgebraElement(C3, QQ, [1, 2, 3]),
         "coeffs"),
        ("Multiset", Multiset([word("a"), word("b")]), "entries"),
        ("SuiteConfig", SuiteConfig("det-mult", dim=2), "seed"),
        ("CheckRecord", CheckRecord("c", 0, ("x",), "1", "1", True), "ok"),
        ("CharPoly", CharPoly(QQ, (1, 0, 1)), "coefficients"),
        ("PartialBijection", PartialBijection(2, 2, ((1, 2),)), "pairs"),
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
    """Every value class caches its hash once, in the ``_hash`` slot."""
    h = hash(value)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value._hash = h + 1
    assert hash(value) == h


def _equal_pairs():
    """(built by the public constructor, built by a product or ``_make``)."""
    x, y = Poly.variable("x"), Poly.variable("y")
    u = Matrix(QQ, [[1, 1], [0, 1]])
    g1 = GroupAlgebraElement.basis(C3, QQ, 1)
    return [
        ("Residue", Residue(1, 7), Residue(3, 7) * Residue(5, 7)),
        ("Poly", Poly(((((("x", 1), ("y", 1)), 1),))), x * y),
        ("Matrix", Matrix(QQ, [[1, 2], [0, 1]]), u * u),
        ("Matrix._make", Matrix(QQ, [[1, 2], [0, 1]]),
         Matrix._make(QQ, 2, ((1, 2), (0, 1)))),
        ("Word", Word(["a", "b"]), word("a") * word("b")),
        ("GroupTable", GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), C3),
        ("GroupAlgebraElement", GroupAlgebraElement(C3, QQ, [0, 0, 1]),
         g1 * g1),
        ("Multiset", Multiset([word("b"), word("a")]),
         Multiset._make((word("a"), word("b")))),
    ]


@pytest.mark.parametrize("name,built,fast", _equal_pairs(),
                         ids=[p[0] for p in _equal_pairs()])
def test_equal_values_hash_equal(name, built, fast):
    assert built == fast
    assert hash(built) == hash(fast)
    assert len({built, fast}) == 1


class TestFrozenRecord:
    def test_fields_by_position_keyword_and_default(self):
        cfg = SuiteConfig("charpoly", dim=3, size=3)
        assert cfg == SuiteConfig("charpoly", "rational", 3, 3)
        assert cfg.fields() == {
            "suite": "charpoly", "ring": "rational", "size": 3, "dim": 3,
            "trials": 50, "seed": 0, "bound": 5, "budget": 10**7}
        assert repr(CharPoly(QQ, (1,))) == \
            "CharPoly(ring=rational, coefficients=(1,))"

    @pytest.mark.parametrize("args,kwargs", [
        ((), {}), (("a",), {"bogus": 1}), (tuple(range(9)), {})])
    def test_missing_unknown_or_extra_fields_are_refused(self, args, kwargs):
        with pytest.raises(TypeError, match="^SuiteConfig takes the fields"):
            SuiteConfig(*args, **kwargs)

    def test_equal_only_within_one_class(self):
        a = CheckRecord("c", 0, (), "1", "1", True)
        assert a == CheckRecord("c", 0, (), "1", "1", True, False)
        assert a != CheckRecord("c", 0, (), "1", "1", True, True)
        assert a != ("c", 0, (), "1", "1", True, False)

    def test_validation_runs_on_construction(self):
        with pytest.raises(ValueError, match="sorted"):
            PartialBijection(2, 2, ((2, 1), (1, 2)))
