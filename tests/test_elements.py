"""Element backends: products, total orders, homomorphisms, group tables."""

from fractions import Fraction

import pytest

from pseudodet import (FormalSum, GroupAlgebraElement, GroupTable,
                       GroupTableError, LetterHom, Matrix, MismatchError,
                       ModRing, Multiset, Poly, QPOLY, QQ, UnitlessError,
                       UnknownLetterError, Word, word)
from pseudodet.elements import _kernels
from pseudodet.rings import PolyRing, Ring
from pseudodet.verify import random_matrix, random_word, substream

from conftest import s3_table


class TestElementMul:
    def test_word_concatenation(self):
        assert word("x1") * word("y2") == word("x1*y2")

    def test_identity_matrix_is_neutral(self):
        m = Matrix(QQ, [[1, 2], [3, 4]])
        eye = Matrix.identity(QQ, 2)
        assert eye * m == m
        assert m * eye == m

    def test_nilpotent_square(self):
        n = Matrix(QQ, [[0, 1], [0, 0]])
        assert n * n == Matrix.zero(QQ, 2)

    def test_size_mismatch(self):
        with pytest.raises(MismatchError):
            Matrix(QQ, [[1]]) * Matrix(QQ, [[1, 0], [0, 1]])

    def test_ring_mismatch(self):
        with pytest.raises(MismatchError):
            Matrix(QQ, [[1]]) * Matrix(ModRing(7), [[1]])

    def test_cross_backend_mismatch(self):
        with pytest.raises(MismatchError):
            word("a") * Matrix(QQ, [[1]])  # type: ignore[operator]


class TestMatrixEqualityAcrossRingObjects:
    """Rings are one object per modulus: ``ModRing(7)`` built twice is one
    ring, and matrices over it compare by their rows; matrices over
    ``ModRing(7)`` and ``ModRing(11)`` never compare equal."""

    def test_equal_rings_give_equal_matrices(self):
        r1, r2 = ModRing(7), ModRing(7)
        assert r1 is r2
        a = Matrix(r1, [[1, 2], [3, 4]])
        b = Matrix(r2, [[1, 2], [3, 4]])
        assert a == b and b == a and hash(a) == hash(b)
        total = FormalSum.of(Multiset([a])) + FormalSum.of(Multiset([b]))
        assert total.num_terms() == 1
        assert total.coefficient(Multiset([a])) == 2

    def test_same_residues_mod_7_and_11_differ(self):
        a = Matrix(ModRing(7), [[1, 2], [3, 4]])
        b = Matrix(ModRing(11), [[1, 2], [3, 4]])
        assert a.rows == b.rows
        assert a != b and b != a
        assert len(FormalSum.of(Multiset([a]))
                   + FormalSum.of(Multiset([b]))) == 2


def _dot_product(a, b):
    """a * b cell by cell through ``Ring.dot``, the generic path."""
    cols = tuple(zip(*b.rows))
    return tuple(tuple(a.ring.dot(row, col) for col in cols) for row in a.rows)


def _product_pairs():
    """(id, a, b) pairs of matrices over every ring, of sizes 1 to 5 and
    of size 7, whose product cells are not written out."""
    half, third = Fraction(1, 2), Fraction(-1, 3)
    x, y, z = (Poly.variable(v) for v in "xyz")
    cases = []
    for n in (1, 2, 3, 4, 5, 7):
        for t in range(6):
            rng = substream(850 + n, t)
            a, b = (random_matrix(rng, QQ, n, 5) for _ in range(2))
            # Fraction cells, some of them integral after scaling
            cases.append((f"QQ-frac-{n}-{t}", a.scale(half), b.scale(third)))
            cases.append((f"QQ-mixed-{n}-{t}", a, b.scale(half)))
            for m in (7, 101):
                ring = ModRing(m)
                # entries near m make every cell's sum wrap
                big = [[m - 1 - (i + j) % 3 for j in range(n)]
                       for i in range(n)]
                cases.append((f"mod{m}-{n}-{t}",
                              random_matrix(rng, ring, n, m),
                              Matrix(ring, big)))
        # ModRing(7) built a second time is the same ring, with one kernel
        cases.append((f"mod7-two-rings-{n}",
                       random_matrix(substream(860, n), ModRing(7), n, 7),
                       Matrix(ModRing(7), [[6] * n] * n)))
        generic = [[Poly.variable(f"a{i}{j}") for j in range(n)]
                   for i in range(n)]
        cancel = [[y if (i + j) % 2 else -x for j in range(n)]
                  for i in range(n)]
        mixed = [[x * y + half if i == j else z - i for j in range(n)]
                 for i in range(n)]
        cases.append((f"QPOLY-{n}", Matrix(QPOLY, generic),
                      Matrix(QPOLY, cancel)))
        cases.append((f"QPOLY-mixed-{n}", Matrix(QPOLY, mixed),
                      Matrix(QPOLY, generic)))
    return [pytest.param(a, b, id=name) for name, a, b in cases]


class TestUnrolledProducts:
    """Products and traces run through the kernels of each (ring, size):
    each product cell must equal the ``Ring.dot`` cell in value and in
    type, and the trace the canonical cell of ``Matrix.trace``."""

    @pytest.mark.parametrize("a,b", _product_pairs())
    def test_cells_match_ring_dot(self, a, b):
        product, trace = _kernels(a.ring, a.n)
        expected = _dot_product(a, b)
        for got in ((a * b).rows, product(a.rows, b.rows)):
            assert got == expected
            assert [type(c) for row in got for c in row] == \
                [type(c) for row in expected for c in row]
        for m in (a, b, a * b):
            assert trace(m.rows) == m.ring.cell(m.trace())

    def test_distinct_equal_rings_share_kernels(self):
        assert _kernels(ModRing(7), 3) is _kernels(ModRing(7), 3)

    def test_integral_fraction_trace(self):
        # the kernel keeps Fraction(1, 1); Matrix.trace passes it on as is
        m = Matrix(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        got = _kernels(QQ, 2)[1](m.rows)
        assert type(got) is Fraction and got == 1
        assert type(m.trace()) is Fraction and QQ.cell(m.trace()) == 1

    @pytest.mark.parametrize("cls,name", [
        (Matrix, "__mul__"), (Matrix, "trace"), (Ring, "dot"),
        (ModRing, "dot"), (PolyRing, "dot"), (Ring, "render"),
        (ModRing, "render"), (PolyRing, "render")])
    def test_traced_methods_stay_on_their_classes(self, cls, name):
        # perfbench/tracer.py wraps these by name in the class's __dict__
        assert name in vars(cls)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_integral_fraction_sum_stays_a_fraction(self, n):
        # n cells of 1/n sum to Fraction(1, 1) through Ring.dot, not to 1
        ones = Matrix(QQ, [[1] * n] * n)
        cell = (ones.scale(Fraction(1, n)) * ones).rows[0][0]
        assert type(cell) is Fraction and cell == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_mismatch_still_raises(self, n):
        eye = Matrix.identity(QQ, n)
        with pytest.raises(MismatchError):
            eye * Matrix.identity(ModRing(7), n)
        with pytest.raises(MismatchError):
            Matrix.identity(ModRing(7), n) * Matrix.identity(ModRing(101), n)
        with pytest.raises(MismatchError):
            eye * Matrix.identity(QQ, 5 - n)
        with pytest.raises(MismatchError):
            eye * word("a")  # type: ignore[operator]


class TestApplyHom:
    def test_single_letter(self):
        m = Matrix(QQ, [[2, 0], [0, 2]])
        assert LetterHom({"x1": m})(word("x1")) == m

    def test_two_letters(self):
        m = Matrix(QQ, [[1, 1], [0, 1]])
        n = Matrix(QQ, [[1, 0], [2, 1]])
        assert LetterHom({"x1": m, "y1": n})(word("x1*y1")) == m * n

    def test_repeated_letter_squares(self):
        m = Matrix(QQ, [[1, 1], [0, 1]])
        image = LetterHom({"x1": m})(word("x1*x1"))
        # oracle: square the matrix by hand
        assert image == Matrix(QQ, [[1, 2], [0, 1]])
        assert image == m * m

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetterError):
            LetterHom({"x1": Matrix(QQ, [[1]])})(word("x1*zz"))

    def test_multiplicative_on_random_words(self):
        letters = ("a", "b", "c")
        rng = substream(11, 0)
        hom = LetterHom({l: random_matrix(rng, QQ, 2, 3) for l in letters})
        for trial in range(100):
            r = substream(11, trial + 1)
            u = random_word(r, letters, 4)
            v = random_word(r, letters, 4)
            assert hom(u * v) == hom(u) * hom(v)


def _sample_elements(backend, count=30):
    out = []
    if backend == "word":
        letters = ("a", "b", "c")
        for t in range(count):
            out.append(random_word(substream(23, t), letters, 4))
    elif backend == "matrix":
        for t in range(count):
            out.append(random_matrix(substream(29, t), QQ, 2, 4))
    elif backend == "matrix-mod":
        ring = ModRing(7)
        for t in range(count):
            out.append(random_matrix(substream(31, t), ring, 2, 6))
    else:
        group = s3_table()
        for t in range(count):
            rng = substream(37, t)
            out.append(GroupAlgebraElement(
                group, QQ, [rng.randint(-3, 3) for _ in range(group.order)]))
    return out


@pytest.mark.parametrize("backend", ["word", "matrix", "matrix-mod", "group"])
def test_mul_associative_on_200_triples(backend):
    elems = _sample_elements(backend)
    rng = substream(41, 0)
    for _ in range(200):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("backend", ["word", "matrix", "matrix-mod", "group"])
def test_strict_total_order(backend):
    elems = _sample_elements(backend)
    rng = substream(43, 0)
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        outcomes = sum([a < b, a == b, b < a])
        assert outcomes == 1
    for _ in range(200):
        a, b, c = sorted((rng.choice(elems) for _ in range(3)))
        if a < b and b < c:
            assert a < c


def test_word_order_is_length_then_lex():
    assert word("b") < word("a*a")
    assert word("a*b") < word("b*a")
    assert not word("a") < word("a")


def test_word_has_no_unit():
    with pytest.raises(UnitlessError):
        word("a").one()
    with pytest.raises(ValueError):
        Word([])


class TestGroupTable:
    def test_identity_validation(self):
        with pytest.raises(GroupTableError):
            GroupTable([[1, 0], [0, 1]])  # index 0 not the identity

    def test_associativity_validation(self):
        # a Latin square that is not a group table (no associativity)
        square = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupTableError, match="associativity"):
            GroupTable(square)

    def test_s3_is_valid(self, s3):
        assert s3.order == 6


class TestGroupAlgebra:
    def test_unit_is_neutral(self, s3):
        rng = substream(47, 0)
        a = GroupAlgebraElement(s3, QQ, [rng.randint(-3, 3) for _ in range(6)])
        one = GroupAlgebraElement.unit(s3, QQ)
        assert one * a == a and a * one == a
        assert a.one() == one

    def test_zero_divisors_exist(self):
        c2 = GroupTable.cyclic(2)
        plus = GroupAlgebraElement(c2, QQ, [1, 1])
        minus = GroupAlgebraElement(c2, QQ, [1, -1])
        product = plus * minus
        assert all(c == 0 for c in product.coeffs)

    def test_convolution_matches_table(self, s3):
        # basis elements multiply exactly as the table says
        for i in range(6):
            for j in range(6):
                gi = GroupAlgebraElement.basis(s3, QQ, i)
                gj = GroupAlgebraElement.basis(s3, QQ, j)
                assert gi * gj == GroupAlgebraElement.basis(s3, QQ, s3.mul(i, j))

    def test_render(self, s3):
        a = GroupAlgebraElement(s3, QQ, [1, 0, 2, 0, 0, 0])
        assert a.render() == "1*g0 + 2*g2"
        assert GroupAlgebraElement(s3, QQ, [0] * 6).render() == "0"

    def test_polynomial_scalars(self):
        # convolution must keep cells in the polynomial backend, including
        # coefficients that stay zero
        from pseudodet import Poly, QPOLY
        c2 = GroupTable.cyclic(2)
        u = Poly.variable("u")
        a = GroupAlgebraElement(c2, QPOLY, [u, 1])
        b = GroupAlgebraElement(c2, QPOLY, [1, u])
        p = a * b
        assert all(isinstance(c, Poly) for c in p.coeffs)
        assert p == GroupAlgebraElement(c2, QPOLY, [2 * u, 1 + u * u])
        assert sorted([a, b, p])  # the order stays total


_A = ((3, -5), (6, Fraction(1, 2)))
_B = ((5, 4), (-6, Fraction(-2, 3)))
_C = Fraction(-3, 4)
#: each operation with the exact rational value of its cells
_CELL_OPS = [("add", lambda a, b: a + b, lambda x, y: x + y),
             ("sub", lambda a, b: a - b, lambda x, y: x - y),
             ("neg", lambda a, b: -a, lambda x, y: -x),
             ("scale", lambda a, b: a.scale(_C), lambda x, y: _C * x)]


@pytest.mark.parametrize("ring", [QQ, ModRing(7), QPOLY],
                         ids=["rational", "mod7", "poly"])
class TestCellRule:
    """Sums, negations and scalings canonicalize every cell through
    ``Ring.reduce``: each result equals what the public constructor builds
    from the exact rational values, and its cells are canonical."""

    @staticmethod
    def assert_canonical(ring, cells):
        for c in cells:
            if ring is QPOLY:
                assert isinstance(c, Poly)
            elif isinstance(ring, ModRing):
                assert type(c) is int and 0 <= c < 7

    @pytest.mark.parametrize("name,op,exact", _CELL_OPS,
                             ids=[t[0] for t in _CELL_OPS])
    def test_matrix(self, ring, name, op, exact):
        got = op(Matrix(ring, _A), Matrix(ring, _B))
        assert got == Matrix(ring, [[exact(x, y) for x, y in zip(ra, rb)]
                                    for ra, rb in zip(_A, _B)])
        self.assert_canonical(ring, [c for row in got.rows for c in row])

    def test_matrix_trace(self, ring):
        got = Matrix(ring, _A).trace()
        want = Matrix(ring, [[3 + Fraction(1, 2)]]).entry(0, 0)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("name,op,exact", _CELL_OPS,
                             ids=[t[0] for t in _CELL_OPS])
    def test_group_algebra(self, ring, name, op, exact):
        c4 = GroupTable.cyclic(4)
        xs, ys = _A[0] + _A[1], _B[0] + _B[1]
        got = op(GroupAlgebraElement(c4, ring, xs),
                 GroupAlgebraElement(c4, ring, ys))
        assert got == GroupAlgebraElement(
            c4, ring, [exact(x, y) for x, y in zip(xs, ys)])
        self.assert_canonical(ring, got.coeffs)


def test_matrix_render_and_scale():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert m.render() == "[[1,2],[3,4]]"
    assert m.scale(2) == Matrix(QQ, [[2, 4], [6, 8]])
    assert (-m) + m == Matrix.zero(QQ, 2)
    assert m.trace() == 5
    assert m.entry(0, 1) == 2


def test_mod_matrix_entries_are_canonical():
    m = Matrix(ModRing(7), [[-1, 8], [14, 3]])
    assert m.render() == "[[6,1],[0,3]]"
    assert m.trace() == ModRing(7).from_int(9)


def test_canonical_rows_are_shared():
    rows = ((1, Fraction(1, 2)), (3, 4))
    m = Matrix(QQ, rows)
    assert m.rows is rows and Matrix(QQ, m.rows).rows is rows
    # a cell that is not canonical, or rows that are not tuples, are rebuilt
    for given in (((1, Fraction(4, 2)), (3, 4)), [[1, 2], [3, 4]],
                  ((1, 2), [3, 4])):
        got = Matrix(QQ, given).rows
        assert got == ((1, 2), (3, 4)) and got is not given
        assert all(type(c) is int for row in got for c in row)
    got = Matrix(ModRing(7), ((8, -1), (0, 3))).rows
    assert got == ((1, 6), (0, 3))
