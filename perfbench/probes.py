"""Layer probes: direct calls to public functions on fixed inputs.

These are the Baseline rows of the ROADMAP, plus a ``Poly`` product row
and a generic-matrix determinant row.  Inputs come from a fixed seed, not
the workload seed, so the rows compare across workloads and runs.  Each
row is the median per-call time over several timed batches.
"""

from __future__ import annotations

import statistics
import time

from pseudodet import multisets, pseudochar, rings, verify

from workloads import generic_matrix

PROBE_SEED = 20240228
#: wall time spent on one row, beyond the calibration call
ROW_SECONDS = 0.2
MIN_SAMPLES = 3


def _per_call_seconds(fn) -> tuple:
    """Median seconds per call, and the number of timed batches."""
    clock = time.perf_counter
    t0 = clock()
    fn()                                     # calibration, also fills caches
    once = max(clock() - t0, 1e-7)
    batch = max(1, int(1e-3 / once))         # batches of at least ~1 ms
    samples = max(MIN_SAMPLES, int(ROW_SECONDS / (once * batch)))
    per_call = []
    for _ in range(samples):
        t0 = clock()
        for _ in range(batch):
            fn()
        per_call.append((clock() - t0) / batch)
    return statistics.median(per_call), samples


def _matrices(ring, size, count, stream):
    rng = verify.substream(PROBE_SEED, stream)
    return [verify.random_matrix(rng, ring, size, 5) for _ in range(count)]


def rows() -> list:
    """``(metric name, unit, callable)`` for every probe row."""
    QQ, M101 = rings.QQ, rings.ModRing(101)
    out = []
    for label, ring, size in (("q2x2", QQ, 2), ("q3x3", QQ, 3),
                              ("m101_2x2", M101, 2)):
        a, b = _matrices(ring, size, 2, size)
        out.append((f"elements.probe_matmul_us.{label}", "us",
                    lambda a=a, b=b: a * b))
    f2 = pseudochar.matrix_trace(QQ, 2, pseudocharacter=False)
    for n in (4, 6, 7):
        args = _matrices(QQ, 2, n, 10 + n)
        out.append((f"pseudochar.probe_recursive_form_ms.n{n}", "ms",
                    lambda args=args: pseudochar.recursive_form(f2, args)))
    for n in (6, 7):
        args = _matrices(QQ, 2, n, 20 + n)
        out.append((f"pseudochar.probe_cycle_sum_ms.n{n}", "ms",
                    lambda args=args: pseudochar.cycle_sum_form(f2, args)))
    f8 = pseudochar.matrix_trace(QQ, 8)
    (x8,) = _matrices(QQ, 8, 1, 30)
    out.append(("pseudochar.probe_determinant_ms.d8", "ms",
                lambda: pseudochar.determinant(f8, x8)))
    out.append(("pseudochar.probe_char_poly_ms.d8", "ms",
                lambda: pseudochar.char_poly(f8, x8)))
    for n in (3, 4, 5):
        x = multisets.Multiset(_matrices(QQ, 2, n, 40 + n))
        y = multisets.Multiset(_matrices(QQ, 2, n, 50 + n))
        out.append((f"multisets.probe_product_ms.{n}x{n}", "ms",
                    lambda x=x, y=y: multisets.multiset_product(x, y)))
    gx, gy = generic_matrix("x", 3), generic_matrix("y", 3)
    px, py = verify.leibniz_det(gx), verify.leibniz_det(gy)
    out.append(("rings.probe_poly_mul_us", "us", lambda: px * py))
    g3 = pseudochar.matrix_trace(rings.QPOLY, 3)
    out.append(("pseudochar.probe_generic_det_ms.d3", "ms",
                lambda: pseudochar.determinant(g3, gx)))
    return out


def run() -> dict:
    """``{name: {"value", "unit", "samples"}}`` for every probe row."""
    scale = {"us": 1e6, "ms": 1e3}
    results = {}
    for name, unit, fn in rows():
        seconds, samples = _per_call_seconds(fn)
        results[name] = {"value": seconds * scale[unit], "unit": unit,
                         "samples": samples}
    return results
