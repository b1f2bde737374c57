"""Seeded property suites with structured, reproducible reports.

Randomness comes from SplitMix64, a tiny published 64-bit generator,
re-implemented here so that reports are bit-reproducible across Python
versions.  Every trial draws from its own stream derived from
(seed, trial index), so trial order or parallelism can never change a
report.  Identical (suite, seed, config) produce byte-identical report
bodies; wall-clock durations are the only nondeterministic fields.

Each theorem suite contains at least one deliberately broken configuration
(a negative control) that must be seen to fail; a suite passes when every
ordinary check holds and every negative control misbehaves as expected.
"""

from __future__ import annotations

import time
from functools import cache
from operator import add, sub

from .elements import LetterHom, Matrix, Word
from .errors import BudgetExceededError, ConfigError, NotInvertibleError
from .multisets import DEFAULT_BUDGET, FormalSum, Multiset, formal_product
from .pseudochar import (ORACLE_CAP, REC_CAP, CentralFunction, CharPoly,
                         _check_perm_cap, char_poly, char_poly_interpolated,
                         check_pseudocharacter, cycle_sum_form,
                         degree_product_check, determinant, matrix_trace,
                         multiplicativity_check, product_formula_check,
                         recursive_form)
from .rings import QQ, FrozenValue, Ring, ring_from_spec

# ---------------------------------------------------------------------------
# deterministic PRNG

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64: state advances by the 64-bit golden gamma, output is the
    standard finalizer.  Small, fast, and stable across platforms."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.randints(0, _MASK64, 1)[0]

    def randints(self, lo: int, hi: int, count: int) -> list:
        """``count`` uniform-ish integers in [lo, hi], each the modulo
        reduction of one 64-bit draw (the bias is irrelevant here;
        reproducibility is what matters).  A ``lo``, ``hi`` or ``count``
        that is not an int (a bool is not one), a negative count, and a
        range of more than 2**64 values, which one draw cannot reach,
        raise ValueError."""
        if not (type(lo) is type(hi) is type(count) is int):
            for name, value in (("lo", lo), ("hi", hi), ("count", count)):
                if type(value) is not int:
                    raise ValueError(f"{name} must be an int, got {value!r}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if hi - lo > _MASK64:
            raise ValueError("range of more than 2**64 values")
        span, state, out = hi - lo + 1, self._state, []
        for _ in range(count):
            state = (state + _GOLDEN) & _MASK64
            out.append(lo + _mix64(state) % span)
        self._state = state
        return out

    def randint(self, lo: int, hi: int) -> int:
        """One integer of ``randints``."""
        return self.randints(lo, hi, 1)[0]

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def substream(seed: int, index: int) -> SplitMix64:
    """The generator for trial ``index`` of a run seeded with ``seed``."""
    return SplitMix64(_mix64(seed & _MASK64) ^ _mix64((index + 1) & _MASK64))


def random_matrix(rng: SplitMix64, ring: Ring, size: int, bound: int) -> Matrix:
    """Matrix with integer entries drawn uniformly from [-bound, bound],
    interpreted in ``ring`` (rationals stay integers, residues reduce),
    drawn row by row."""
    cells = rng.randints(-bound, bound, size * size)
    return Matrix(ring, [cells[i:i + size]
                         for i in range(0, size * size, size)])


def random_word(rng: SplitMix64, letters, max_len: int) -> Word:
    """Word of length 1..max_len over the given letter alphabet."""
    length = rng.randint(1, max_len)
    return Word(rng.choice(letters) for _ in range(length))


# ---------------------------------------------------------------------------
# independent determinant oracles

@cache
def _column_steps(n: int) -> tuple:
    """The steps of the Leibniz sum over column sets, built on first use
    of each n: row i's tuple holds a ``(mask, j, to, odd)`` step for each
    set ``mask`` of i columns and each column j outside it, where ``to``
    is ``mask`` with j added and ``odd`` the parity of the columns in
    ``mask`` greater than j.  Each permutation s is the one path of steps
    j = s(0), s(1), .., and the parities along it add up to its
    inversions.  Past ``ORACLE_CAP`` it raises before it builds a step."""
    _check_perm_cap(n)
    return tuple(
        tuple((mask, j, mask | 1 << j, (mask >> j).bit_count() & 1)
              for mask in range(1 << n) if mask.bit_count() == i
              for j in range(n) if not mask >> j & 1)
        for i in range(n))


def leibniz_det(matrix: Matrix):
    """Determinant by the Leibniz sum over S_n (n <= ORACLE_CAP), summed
    row by row over the set of columns the rows above have used: after i
    rows, the partial sum of an i-element set is the signed sum of the
    products along the bijections of rows 0..i-1 onto it, which every
    permutation that continues them shares (2^(n-1) n steps in place of
    n! products of n cells).

    This is the independent oracle for pseudocharacter determinants: it
    never touches the recursive forms, only scalar arithmetic.  The sum
    is reduced once at the end.
    """
    sums = [1] + [0] * ((1 << matrix.n) - 1)
    for row, steps in zip(matrix.rows, _column_steps(matrix.n)):
        for mask, j, to, odd in steps:
            term = sums[mask] * row[j]
            sums[to] = sums[to] - term if odd else sums[to] + term
    return matrix.ring.cell(sums[-1])


def char_poly_leibniz(matrix: Matrix) -> tuple:
    """Coefficients c_0..c_n of det(t*I - x), lowest degree first, by the
    Leibniz sum of ``leibniz_det`` over column sets, with each partial sum
    a coefficient list in t: a step times the cell -x_ij, or (t - x_ii)
    on the diagonal.  No variable is introduced, so the coefficients are
    scalars of the matrix's own ring (polynomial cells give polynomial
    coefficients).  The modular backend's cells are integers in [0, m):
    the sum is expanded over the integers and reduced once at the end
    (reduction mod m is a ring homomorphism)."""
    n = matrix.n
    sums = [[1]] + [None] * ((1 << n) - 1)
    for i, (row, steps) in enumerate(zip(matrix.rows, _column_steps(n))):
        for mask, j, to, odd in steps:
            low = sums[mask]
            a = row[j] if odd else -row[j]  # the sign times -x_ij
            term = [a * c for c in low] + [0]
            if j == i:  # and the sign times t
                term[1:] = map(sub if odd else add, term[1:], low)
            acc = sums[to]
            sums[to] = term if acc is None else list(map(add, acc, term))
    return tuple(map(matrix.ring.cell, sums[-1]))


# ---------------------------------------------------------------------------
# configuration and reports

#: Fixed suite parameters, echoed in every report's config.
WORD_CARD = 3       # exhaustive word-multiset cardinality cap
PAIR_SUM = 4        # product-formula: max |x| + |y|
TAYLOR_MAX_N = 4    # taylor-equiv: max argument count


class SuiteConfig(FrozenValue):
    """Parameters of one suite run, checked on construction: a config
    that exists can run.  ``ring`` is rational, mod:<m> or words.  A
    matrix suite draws ``dim`` x ``dim`` matrices with entries in
    [-bound, bound], whose trace is the pseudocharacter of dimension
    ``dim``; ``budget`` bounds each formal product's terms."""

    __slots__ = _fields = ("suite", "ring", "dim", "trials", "seed", "bound",
                           "budget")

    def __new__(cls, suite, ring="rational", dim=2, trials=50, seed=0,
                bound=5, budget=DEFAULT_BUDGET):
        cfg = cls._make(suite, ring, dim, trials, seed, bound, budget)
        for name, value in cfg.fields().items():
            kind = str if name in ("suite", "ring") else int
            if type(value) is not kind:  # so a bool is no int here
                raise ConfigError(f"{name} must be of type {kind.__name__}, "
                                  f"got {value!r}")
        if cfg.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {cfg.suite!r}; "
                              f"choose from {', '.join(SUITE_NAMES)}")
        for name in ("trials", "bound", "budget", "dim"):
            if getattr(cfg, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # [-bound, bound] must fit the one 64-bit draw of randint
        if cfg.bound > 2**63 - 1:
            raise ConfigError("bound must be <= 2**63 - 1")
        if cfg.ring == "words" and cfg.suite != "assoc":
            raise ConfigError(f"ring 'words' only supports the assoc suite, "
                              f"not {cfg.suite!r}")
        if cfg.ring != "words":
            ring = ring_from_spec(cfg.ring)
            _, (cap, why), pseudo = _SUITES[cfg.suite]
            if cfg.dim > cap:
                raise ConfigError(f"dim {cfg.dim} is past the cap of {cap} "
                                  f"for {cfg.suite}: {why}")
            if pseudo:
                try:
                    ring.inverse_of_factorial(cfg.dim)
                except NotInvertibleError as exc:
                    raise ConfigError(str(exc)) from None
        return cfg

    def echo(self) -> dict:
        return {**self.fields(), "size": self.dim,
                "rec_cap": REC_CAP, "oracle_cap": ORACLE_CAP,
                "word_card": WORD_CARD, "pair_sum": PAIR_SUM,
                "taylor_max_n": TAYLOR_MAX_N}


class CheckRecord(FrozenValue):
    __slots__ = _fields = ("name", "trial", "inputs", "lhs", "rhs", "ok",
                           "negative_control")

    @property
    def behaved(self) -> bool:
        return (not self.ok) if self.negative_control else self.ok

    def to_dict(self) -> dict:
        return {"name": self.name, "trial": self.trial,
                "inputs": list(self.inputs), "lhs": self.lhs,
                "rhs": self.rhs, "ok": self.ok,
                "negative_control": self.negative_control,
                "behaved": self.behaved}


class SuiteReport(FrozenValue):
    """One suite's records under its ``config``; ``error`` is the text of
    the exception that stopped the suite (its records are then lost and
    it fails), else None."""

    __slots__ = _fields = ("config", "records", "duration_seconds", "error")

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.behaved for r in self.records)

    def counts(self) -> dict:
        return {
            "checks": len(self.records),
            "behaved": sum(1 for r in self.records if r.behaved),
            "misbehaved": sum(1 for r in self.records if not r.behaved),
            "negative_controls": sum(1 for r in self.records
                                     if r.negative_control),
        }

    def reproductions(self) -> list:
        return [{"seed": self.config.seed, "trial": r.trial, "name": r.name}
                for r in self.records if not r.behaved]

    def to_dict(self) -> dict:
        body = {
            "suite": self.config.suite,
            "config": self.config.echo(),
            "checks": [r.to_dict() for r in self.records],
            "counts": self.counts(),
            "pass": self.passed,
            "reproductions": self.reproductions(),
            "duration_seconds": self.duration_seconds,
        }
        if self.error is not None:
            body["error"] = self.error
        return body

    def text_lines(self, quiet: bool = False) -> list:
        counts = self.counts()
        status = "PASS" if self.passed else "FAIL"
        cfg = self.config
        head = (f"suite {cfg.suite} [ring={cfg.ring} dim={cfg.dim}]: "
                f"{status} ({counts['behaved']}/{counts['checks']} checks, "
                f"{counts['negative_controls']} negative controls) "
                f"in {self.duration_seconds:.2f}s")
        lines = [head]
        if self.error is not None:
            lines.append(f"  ERROR: {self.error}")
        if not quiet:
            for r in self.records:
                if not r.behaved:
                    lines.append(f"  MISBEHAVED {r.name} (trial {r.trial}, "
                                 f"seed {cfg.seed})")
                    for inp in r.inputs:
                        lines.append(f"    input: {inp}")
                    lines.append(f"    lhs: {r.lhs}")
                    lines.append(f"    rhs: {r.rhs}")
        return lines


def _fmt_sum(s: FormalSum, ok: bool) -> str:
    if ok and s.render_length_exceeds(400):
        return f"<formal sum, {s.num_terms()} terms>"
    return s.render()


def _sum_record(name: str, trial: int, inputs: tuple, lhs: FormalSum,
                rhs: FormalSum, negative_control=False,
                rhs_note="") -> CheckRecord:
    """A record whose two sides are formal sums.  Equal sides (equal rank
    dicts over tables equal value for value) render alike, so the lhs
    text serves both."""
    ok = lhs == rhs
    text = _fmt_sum(lhs, ok)
    return CheckRecord(name, trial, inputs, text,
                       (text if ok else _fmt_sum(rhs, ok)) + rhs_note, ok,
                       negative_control)


def _scalar_record(ring: Ring, name: str, trial: int, inputs: tuple,
                   lhs, rhs, ok=None, negative_control=False) -> CheckRecord:
    """A record whose two sides are scalars of ``ring``; ``ok`` defaults
    to ``lhs == rhs``."""
    return CheckRecord(name, trial, inputs, ring.render(lhs), ring.render(rhs),
                       lhs == rhs if ok is None else ok, negative_control)


# ---------------------------------------------------------------------------
# suite bodies

def _trials(cfg: SuiteConfig):
    """(trial index, its own generator) for each trial of ``cfg``."""
    for trial in range(cfg.trials):
        yield trial, substream(cfg.seed, trial)


def _trace(cfg: SuiteConfig):
    """The trace on ``cfg``'s matrices, a pseudocharacter exactly in the
    suites that assume one."""
    return matrix_trace(ring_from_spec(cfg.ring), cfg.dim,
                        pseudocharacter=_SUITES[cfg.suite][2])


def _draw(rng, cfg: SuiteConfig, count: int) -> tuple:
    ring = ring_from_spec(cfg.ring)
    return tuple(random_matrix(rng, ring, cfg.dim, cfg.bound)
                 for _ in range(count))


def _renders(*values) -> tuple:
    return tuple(v.render() for v in values)


# fixed inputs of the negative controls
_X = Matrix(QQ, [[1, 2], [3, 4]])
_Y = Matrix(QQ, [[0, 1], [1, 0]])
#: the 2x2 trace declared with dimension 1
_WRONG_DIM = matrix_trace(QQ, 2, 1)
#: a non-central function on 2x2 matrices
_CORNER = CentralFunction(lambda mat: mat.entry(0, 1), 2, QQ,
                          domain="M2(rational)", name="corner")


def _letters(prefix: str, count: int) -> Multiset:
    """The multiset of the one-letter words prefix1, .., prefix<count>."""
    return Multiset(Word([f"{prefix}{i + 1}"]) for i in range(count))


def _assoc_sides(x, y, z, budget=DEFAULT_BUDGET):
    """(x X y) X z and x X (y X z)."""
    x, y, z = map(FormalSum.of, (x, y, z))
    return (formal_product(formal_product(x, y, budget), z, budget),
            formal_product(x, formal_product(y, z, budget), budget))


def _suite_assoc(cfg: SuiteConfig):
    if cfg.ring == "words":
        span = range(WORD_CARD + 1)
        cases = [(f"assoc-words({n},{m},{k})", 0,
                  (_letters("x", n), _letters("y", m), _letters("z", k)))
                 for n in span for m in span for k in span]
    else:
        cases = []
        for trial, rng in _trials(cfg):
            cards = tuple(rng.randints(0, 3, 3))
            cases.append((f"assoc-matrix{cards}", trial,
                          [Multiset(_draw(rng, cfg, c)) for c in cards]))
    for name, trial, xyz in cases:
        yield _sum_record(name, trial, _renders(*xyz),
                          *_assoc_sides(*xyz, cfg.budget))

    # negative control: a corrupted right-hand side must be detected
    x = Multiset([Word(["a"]), Word(["b"])])
    y = Multiset([Word(["c"])])
    z = Multiset([Word(["d"])])
    lhs, rhs = _assoc_sides(x, y, z)
    yield _sum_record("assoc-corrupted-control", 0, _renders(x, y, z), lhs,
                      rhs + FormalSum.unit(), True,
                      " (one spurious term added)")


_HOM_ALPHABET = ("a", "b", "c", "d")


def _random_word_sum(rng) -> FormalSum:
    """1 to 3 terms: multisets of 0 to 2 words of length at most 2, with
    nonzero coefficients in [-3, 3]."""
    acc = FormalSum.zero()
    for _ in range(rng.randint(1, 3)):
        card = rng.randint(0, 2)
        ms = Multiset(random_word(rng, _HOM_ALPHABET, 2) for _ in range(card))
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-3, 3)
        acc = acc + FormalSum.of(ms, coeff)
    return acc


def _suite_functoriality(cfg: SuiteConfig):
    for trial, rng in _trials(cfg):
        s = _random_word_sum(rng)
        t = _random_word_sum(rng)
        hom = LetterHom(dict(zip(_HOM_ALPHABET,
                                 _draw(rng, cfg, len(_HOM_ALPHABET)))))
        yield _sum_record(
            "functoriality", trial, _renders(s, t),
            formal_product(s, t, cfg.budget).map_elements(hom),
            formal_product(s.map_elements(hom), t.map_elements(hom),
                           cfg.budget))

    # negative control: mapping the two factors through different
    # homomorphisms must break the identity
    a = Matrix(QQ, [[1, 1], [0, 1]])
    b = Matrix(QQ, [[1, 0], [1, 1]])
    hom1 = LetterHom({"a": a})
    hom2 = LetterHom({"a": b})
    s = FormalSum.of(Multiset([Word(["a"])]))
    yield _sum_record(
        "functoriality-mixed-hom-control", 0, _renders(s),
        formal_product(s, s).map_elements(hom1),
        formal_product(s.map_elements(hom1), s.map_elements(hom2)), True)


def _suite_product_formula(cfg: SuiteConfig):
    f = _trace(cfg)
    pairs = [(n, s - n) for s in range(PAIR_SUM + 1) for n in range(s + 1)]
    for trial, rng in _trials(cfg):
        n, m = pairs[trial % len(pairs)]
        x = Multiset(_draw(rng, cfg, n))
        y = Multiset(_draw(rng, cfg, m))
        yield _scalar_record(
            f.ring, f"product-formula({n},{m})", trial, _renders(x, y),
            *product_formula_check(f, x, y, budget=cfg.budget))

    # negative control: a non-central function must break the formula
    x = Multiset([Matrix(QQ, [[-1, 1], [1, 1]]),
                  Matrix(QQ, [[0, 3], [-1, 0]])])
    y = Multiset([Matrix(QQ, [[-3, 1], [-2, -3]])])
    yield _scalar_record(
        QQ, "product-formula-noncentral-control", 0, _renders(x, y),
        *product_formula_check(_CORNER, x, y), negative_control=True)


def _suite_degree_d(cfg: SuiteConfig):
    f = _trace(cfg)
    for trial, rng in _trials(cfg):
        xs = _draw(rng, cfg, cfg.dim)
        ys = _draw(rng, cfg, cfg.dim)
        yield _scalar_record(f.ring, "degree-d", trial, _renders(*xs, *ys),
                             *degree_product_check(f, xs, ys))

    # negative control: trace on M2 declared with dimension 1
    yield _scalar_record(
        QQ, "degree-d-wrong-dim-control", 0, _renders(_X, _Y),
        *degree_product_check(_WRONG_DIM, (_X,), (_Y,)),
        negative_control=True)


def _suite_det_mult(cfg: SuiteConfig):
    f = _trace(cfg)
    ring = f.ring
    identity = Matrix.identity(ring, cfg.dim)
    yield _scalar_record(ring, "det-of-unit", 0, _renders(identity),
                         determinant(f, identity), ring.one())
    for trial, rng in _trials(cfg):
        x, y = _draw(rng, cfg, 2)
        inputs = _renders(x, y)
        yield _scalar_record(ring, "det-vs-leibniz", trial, inputs[:1],
                             determinant(f, x), leibniz_det(x))
        yield _scalar_record(ring, "det-multiplicative", trial, inputs,
                             *multiplicativity_check(f, x, y))

    # negative control: trace on M2 declared with dimension 1
    yield _scalar_record(
        QQ, "det-mult-wrong-dim-control", 0, _renders(_X, _Y),
        *multiplicativity_check(_WRONG_DIM, _X, _Y), negative_control=True)


def _suite_charpoly(cfg: SuiteConfig):
    f = _trace(cfg)
    ring = f.ring
    for trial, rng in _trials(cfg):
        (x,) = _draw(rng, cfg, 1)
        inputs = _renders(x)
        cp = char_poly(f, x)
        cp_text = cp.render()
        oracle = char_poly_leibniz(x)
        yield CheckRecord(
            "charpoly-vs-leibniz", trial, inputs, cp_text,
            " , ".join(ring.render(c) for c in oracle) + " (low to high)",
            cp == CharPoly(ring, oracle), False)
        got = cp.trace()
        expected = f(x)
        yield _scalar_record(ring, "charpoly-trace-roundtrip", trial,
                             inputs, got, expected,
                             cp.is_monic() and got == expected)
        interp = char_poly_interpolated(f, x)
        yield CheckRecord("charpoly-vs-interpolation", trial, inputs,
                          cp_text, interp.render(), cp == interp, False)

    # negative control: wrong declared dimension gives the wrong degree
    cp = char_poly(_WRONG_DIM, _X)
    oracle = char_poly_leibniz(_X)
    yield CheckRecord(
        "charpoly-wrong-dim-control", 0, _renders(_X), cp.render(),
        " , ".join(QQ.render(c) for c in oracle),
        cp == CharPoly(QQ, oracle), True)


def _suite_taylor_equiv(cfg: SuiteConfig):
    f = _trace(cfg)
    for trial, rng in _trials(cfg):
        n = trial % TAYLOR_MAX_N + 1
        args = _draw(rng, cfg, n)
        yield _scalar_record(
            f.ring, f"taylor-equiv(n={n})", trial, _renders(*args),
            recursive_form(f, args), cycle_sum_form(f, args))

    # negative control: a non-central function separates the two
    # definitions once cycle rotations matter (n = 4)
    args = (_X, _Y, Matrix(QQ, [[2, 1], [0, 1]]), Matrix(QQ, [[1, 0], [5, 2]]))
    yield _scalar_record(
        QQ, "taylor-equiv-noncentral-control", 0, _renders(*args),
        recursive_form(_CORNER, args), cycle_sum_form(_CORNER, args),
        negative_control=True)


def _suite_pseudochar_axioms(cfg: SuiteConfig):
    f = _trace(cfg)
    rng = substream(cfg.seed, 0)
    count = min(cfg.trials, 12)  # axiom checks scan all pairs of samples
    samples = _draw(rng, cfg, count)
    report = check_pseudocharacter(f, samples)
    inputs = _renders(*samples)
    for name, detail, ok in report.entries:
        yield CheckRecord(f"axiom-{name}", 0, inputs, detail,
                          "expected to hold", ok, False)

    # negative control: declared dimension 3 for the 2x2 trace
    g = matrix_trace(QQ, 2, 3, pseudocharacter=False)
    bad = check_pseudocharacter(g, [_X, _Y])
    yield CheckRecord(
        "axioms-wrong-dim-control", 0, ("trace on M2 declared dim 3",),
        bad.render().replace("\n", "; "), "expected to fail",
        bad.passed, True)


_DRAWN = (32, "each trial draws dim x dim matrices")
_PERMS = (ORACLE_CAP, "its oracle sums dim! terms, under the permutation "
          f"cap of {ORACLE_CAP}")
#: suite -> (body, (largest dim, why), whether it needs the pseudocharacter
#: hypothesis and hence an invertible dim! in the scalar ring)
_SUITES = {
    "assoc": (_suite_assoc, _DRAWN, False),
    "functoriality": (_suite_functoriality, _DRAWN, False),
    "product-formula": (_suite_product_formula, _DRAWN, False),
    "degree-d": (_suite_degree_d, (6, "each trial evaluates 2^dim - 1 "
                                   "forms of dim arguments"), True),
    "det-mult": (_suite_det_mult, _PERMS, True),
    "charpoly": (_suite_charpoly, _PERMS, True),
    "taylor-equiv": (_suite_taylor_equiv, _DRAWN, False),
    "pseudochar-axioms": (_suite_pseudochar_axioms, (
        REC_CAP - 1, "it takes forms of dim + 1 arguments, under the "
        f"recursion cap of {REC_CAP}"), True),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the suite of ``cfg`` and assemble its report.

    Deterministic given (suite, seed, config): trials draw from per-index
    substreams, so the report body never depends on timing or ordering.
    An exception stops the suite alone: its report then fails with no
    records and the exception as ``error`` (a product over the budget as
    its text, any other as ``"<Type>: <text>"``), and the caller goes on
    with the next suite.
    """
    start = time.perf_counter()
    try:
        records, error = tuple(_SUITES[cfg.suite][0](cfg)), None
    except BudgetExceededError as exc:
        records, error = (), str(exc)
    except Exception as exc:
        records, error = (), f"{type(exc).__name__}: {exc}"
    duration = time.perf_counter() - start
    return SuiteReport(cfg, records, duration, error)


def default_all_configs(**shared) -> list:
    """The default verification matrix: every matrix suite on each
    (dimension, ring) cell, plus the exhaustive word associativity suite."""
    configs = [SuiteConfig("assoc", ring="words", **shared)]
    for ring in ("rational", "mod:7", "mod:101"):
        for dim in (1, 2, 3):
            configs += [SuiteConfig(suite, ring=ring, dim=dim, **shared)
                        for suite in SUITE_NAMES]
    return configs
