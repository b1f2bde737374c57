"""The in-process workloads: inputs built from the seed, one op per check.

Set-up draws every input from the seed with the library's own generator
(``substream`` and ``random_matrix``) and keeps only the matrix cells; the
timed part receives nothing else.  Each pass rebuilds fresh ``Matrix`` and
``Multiset`` objects from those cells outside the timed region, so no pass
finds hashes or other per-object state left behind by an earlier one.

An op is one check call and returns whether the identity held.  Every
workload ends with one fixed negative control, an op whose identity must
*not* hold.
"""

from __future__ import annotations

import time
from functools import partial

from pseudodet import elements, multisets, pseudochar, rings, verify

#: product-formula: draws for each (algebra, split).  Criterion 04 of the
#: acceptance tests uses 50 (4,200 checks, about 23 s); 10 keeps one pass
#: near 5 s so a run holds several passes.
PF_DRAWS = 10
PF_ALGEBRAS = (("rational", 2), ("rational", 3), ("mod:101", 2))
PF_SPLITS = tuple((n, s - n) for s in range(7) for n in range(s + 1))

#: det-charpoly: d x d matrices for d = 2..6 over each ring, four checks on
#: every draw.  Generic d = 4 stays out: one det-mult call there takes
#: several seconds and would be the whole pass.
DC_DRAWS = 24
DC_RINGS = ("rational", "mod:101")
DC_DIMS = (2, 3, 4, 5, 6)
BOUND = 5

# fixed matrices of the negative controls (the same as the suites' controls)
_CONTROL_X = ((-1, 1), (1, 1)), ((0, 3), (-1, 0))
_CONTROL_Y = ((-3, 1), (-2, -3)),
_WRONG_DIM_X = ((1, 2), (3, 4))
_WRONG_DIM_Y = ((0, 1), (1, 0))


def build(workload: str, seed: int) -> list:
    """Raw inputs for one pass: tuples of cells, no library objects."""
    if workload == "product-formula":
        return _build_product_formula(seed)
    if workload == "det-charpoly":
        return _build_det_charpoly(seed)
    raise ValueError(f"no in-process inputs for workload {workload!r}")


def _cells(rng, ring, size):
    return verify.random_matrix(rng, ring, size, BOUND).rows


def _build_product_formula(seed: int) -> list:
    raw = []
    for a, (spec, size) in enumerate(PF_ALGEBRAS):
        ring = rings.ring_from_spec(spec)
        for k, (n, m) in enumerate(PF_SPLITS):
            for j in range(PF_DRAWS):
                rng = verify.substream(seed, (a * len(PF_SPLITS) + k)
                                       * PF_DRAWS + j)
                xs = tuple(_cells(rng, ring, size) for _ in range(n))
                ys = tuple(_cells(rng, ring, size) for _ in range(m))
                raw.append((spec, size, xs, ys))
    return raw


def _build_det_charpoly(seed: int) -> list:
    raw = []
    for r, spec in enumerate(DC_RINGS):
        ring = rings.ring_from_spec(spec)
        for d in DC_DIMS:
            for j in range(DC_DRAWS):
                rng = verify.substream(seed, (r * len(DC_DIMS) + d)
                                       * DC_DRAWS + j)
                raw.append((spec, d, _cells(rng, ring, d), _cells(rng, ring, d)))
    return raw


# ops ----------------------------------------------------------------------

def _product_formula(f, x, y) -> bool:
    return pseudochar.product_formula_check(f, x, y)[2]


def _det_vs_leibniz(f, x) -> bool:
    return pseudochar.determinant(f, x) == verify.leibniz_det(x)


def _det_multiplicative(f, x, y) -> bool:
    return pseudochar.multiplicativity_check(f, x, y)[2]


def _charpoly_vs_leibniz(f, x) -> bool:
    cp = pseudochar.char_poly(f, x)
    oracle = verify.char_poly_leibniz(x)
    return (len(cp.coefficients) == len(oracle)
            and all(a == b for a, b in zip(cp.coefficients, oracle)))


def _charpoly_vs_interpolation(f, x) -> bool:
    return pseudochar.char_poly(f, x) == pseudochar.char_poly_interpolated(f, x)


def _form_vanishes(f, args) -> bool:
    return pseudochar.recursive_form(f, args) == f.ring.zero()


def generic_matrix(name: str, d: int):
    """The d x d matrix whose entries are independent variables."""
    return elements.Matrix(rings.QPOLY, [
        [rings.Poly.variable(f"{name}{i}{j}") for j in range(d)]
        for i in range(d)])


def materialize(workload: str, raw: list) -> list:
    """Fresh library objects for one pass: ``(label, op, expected)``."""
    Matrix, Multiset = elements.Matrix, multisets.Multiset
    QQ = rings.QQ
    ops = []
    fns = {}

    def trace(spec, size, pseudo):
        key = (spec, size)
        if key not in fns:
            fns[key] = pseudochar.matrix_trace(
                rings.ring_from_spec(spec), size, pseudocharacter=pseudo)
        return fns[key]

    if workload == "product-formula":
        for spec, size, xs, ys in raw:
            f = trace(spec, size, False)
            x = Multiset(Matrix(f.ring, c) for c in xs)
            y = Multiset(Matrix(f.ring, c) for c in ys)
            ops.append((f"{spec}:{size}:{len(xs)},{len(ys)}",
                        partial(_product_formula, f, x, y), True))
        corner = pseudochar.CentralFunction(
            lambda mat: mat.entry(0, 1), 2, QQ, domain="M2(rational)",
            name="corner")
        x = Multiset(Matrix(QQ, c) for c in _CONTROL_X)
        y = Multiset(Matrix(QQ, c) for c in _CONTROL_Y)
        ops.append(("noncentral-control",
                    partial(_product_formula, corner, x, y), False))
        return ops

    if workload != "det-charpoly":
        raise ValueError(f"no in-process ops for workload {workload!r}")
    for spec, d, xc, yc in raw:
        f = trace(spec, d, True)
        x, y = Matrix(f.ring, xc), Matrix(f.ring, yc)
        label = f"{spec}:{d}"
        ops.append((f"det-vs-leibniz:{label}", partial(_det_vs_leibniz, f, x),
                    True))
        ops.append((f"det-mult:{label}",
                    partial(_det_multiplicative, f, x, y), True))
        ops.append((f"charpoly-vs-leibniz:{label}",
                    partial(_charpoly_vs_leibniz, f, x), True))
        ops.append((f"charpoly-vs-interpolation:{label}",
                    partial(_charpoly_vs_interpolation, f, x), True))
    g3 = pseudochar.matrix_trace(rings.QPOLY, 3)
    gx, gy, gz, gw = (generic_matrix(v, 3) for v in "xyzw")
    ops.append(("generic-det-mult:3", partial(_det_multiplicative, g3, gx, gy),
                True))
    ops.append(("generic-det-vs-leibniz:3", partial(_det_vs_leibniz, g3, gx),
                True))
    ops.append(("generic-form4-vanishes:3",
                partial(_form_vanishes, g3, (gx, gy, gz, gw)), True))
    wrong = pseudochar.matrix_trace(QQ, 2, 1)
    ops.append(("wrong-dim-control",
                partial(_det_multiplicative, wrong, Matrix(QQ, _WRONG_DIM_X),
                        Matrix(QQ, _WRONG_DIM_Y)), False))
    return ops


def run_pass(ops: list) -> dict:
    """Run every op (closed loop: one caller, the next op starts when the
    previous returns) and check its outcome.  Times are raw
    ``perf_counter`` readings: ``start`` and ``end`` of the pass and
    ``bounds``, the (start, end) of each op."""
    clock = time.perf_counter
    bounds = []
    failures = []
    cpu0 = time.process_time()
    start = clock()
    for label, op, expected in ops:
        t0 = clock()
        try:
            ok = op()
        except Exception as exc:  # an op that raises counts as failed
            ok = exc
        bounds.append((t0, clock()))
        if isinstance(ok, Exception) or bool(ok) != expected:
            failures.append(f"{label}: got {ok!r}, expected {expected}")
    end = clock()
    return {"start": start, "end": end,
            "cpu_s": time.process_time() - cpu0, "bounds": bounds,
            "ops": len(ops), "failures": failures}
