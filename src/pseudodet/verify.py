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
from dataclasses import dataclass
from itertools import permutations

from .elements import LetterHom, Matrix, Word
from .errors import CapExceededError, ConfigError, NotInvertibleError
from .multisets import (FormalSum, Multiset, formal_product, map_formal,
                        multiset_product)
from .pseudochar import (CentralFunction, char_poly, char_poly_interpolated,
                         check_pseudocharacter, cycle_sum_form,
                         degree_product_check, determinant, matrix_trace,
                         multiplicativity_check, product_formula_check,
                         recursive_form)
from .rings import QQ, ModRing, Poly, QPOLY, Ring, ring_from_spec

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
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo reduction (the bias is
        irrelevant here; reproducibility is what matters)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def substream(seed: int, index: int) -> SplitMix64:
    """The generator for trial ``index`` of a run seeded with ``seed``."""
    return SplitMix64(_mix64(seed & _MASK64) ^ _mix64((index + 1) & _MASK64))


def random_matrix(rng: SplitMix64, ring: Ring, size: int, bound: int) -> Matrix:
    """Matrix with integer entries drawn uniformly from [-bound, bound],
    interpreted in ``ring`` (rationals stay integers, residues reduce)."""
    return Matrix(ring, [[rng.randint(-bound, bound) for _ in range(size)]
                         for _ in range(size)])


def random_word(rng: SplitMix64, letters, max_len: int) -> Word:
    """Word of length 1..max_len over the given letter alphabet."""
    length = rng.randint(1, max_len)
    return Word(rng.choice(letters) for _ in range(length))


# ---------------------------------------------------------------------------
# independent determinant oracles

def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_det(matrix: Matrix):
    """Determinant by the Leibniz sum over permutations (size <= 6).

    This is the independent oracle for pseudocharacter determinants: it
    never touches the recursive forms, only scalar arithmetic.
    """
    n = matrix.n
    if n > 6:
        raise CapExceededError(f"Leibniz determinant capped at size 6, got {n}")
    ring, rows = matrix.ring, matrix.rows
    acc = None
    for perm in permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        term = prod if _perm_sign(perm) > 0 else -prod
        acc = term if acc is None else acc + term
    return ring.cell_to_scalar(ring.reduce(acc))


def _char_poly_leibniz_rational(matrix: Matrix) -> tuple:
    t = Poly.variable("t")
    n = matrix.n
    cells = [[t - matrix.rows[i][j] if i == j else Poly.constant(0) - matrix.rows[i][j]
              for j in range(n)] for i in range(n)]
    det = leibniz_det(Matrix(QPOLY, cells))
    coeffs = [0] * (n + 1)
    for mono, coeff in det.terms:
        if mono == ():
            coeffs[0] = coeff
        elif len(mono) == 1 and mono[0][0] == "t":
            coeffs[mono[0][1]] = coeff
        else:
            raise AssertionError(f"unexpected monomial {mono} in char poly")
    return tuple(coeffs)


def char_poly_leibniz(matrix: Matrix) -> tuple:
    """Coefficients c_0..c_n of det(t*I - x) computed via the Leibniz sum
    over polynomial scalars; the modular backend lifts entries to integers,
    expands over the rationals, and reduces the coefficients (reduction mod
    m is a ring homomorphism, so determinants commute with it)."""
    ring = matrix.ring
    if isinstance(ring, ModRing):
        lifted = Matrix(QQ, [list(row) for row in matrix.rows])
        return tuple(ring.from_int(int(c))
                     for c in _char_poly_leibniz_rational(lifted))
    return _char_poly_leibniz_rational(matrix)


# ---------------------------------------------------------------------------
# configuration and reports

SUITE_NAMES = ("assoc", "functoriality", "product-formula", "degree-d",
               "det-mult", "charpoly", "taylor-equiv", "pseudochar-axioms")

#: Suites that require the pseudocharacter hypothesis (and hence an
#: invertible dim! in the scalar ring).
_PSEUDO_SUITES = {"degree-d", "det-mult", "charpoly", "pseudochar-axioms"}


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of one suite run; validation happens in ``validate``."""

    suite: str
    ring: str = "rational"          # rational | mod:<m> | words
    size: int = 2                   # matrix size
    dim: int | None = None          # declared dimension; defaults to size
    trials: int = 50
    seed: int = 0
    bound: int = 5                  # entries drawn from [-bound, bound]
    budget: int = 10**7             # formal-product term budget
    rec_cap: int = 8
    oracle_cap: int = 7
    word_card: int = 3              # exhaustive word-multiset cardinality cap
    pair_sum: int = 4               # product-formula: max |x| + |y|
    taylor_max_n: int = 4           # taylor-equiv: max argument count

    @property
    def dimension(self) -> int:
        return self.size if self.dim is None else self.dim

    def ring_obj(self) -> Ring:
        return ring_from_spec(self.ring)

    def validate(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; "
                              f"choose from {', '.join(SUITE_NAMES)}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.bound < 1:
            raise ConfigError("bound must be >= 1")
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.size < 1 or self.dimension < 1:
            raise ConfigError("size and dim must be >= 1")
        if self.ring == "words":
            if self.suite != "assoc":
                raise ConfigError(
                    f"ring 'words' only supports the assoc suite, "
                    f"not {self.suite!r}")
            return
        try:
            ring = self.ring_obj()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.suite in _PSEUDO_SUITES:
            try:
                ring.inverse_of_factorial(self.dimension)
            except NotInvertibleError as exc:
                raise ConfigError(str(exc)) from None
        if self.suite == "degree-d" and self.dimension > self.oracle_cap:
            raise ConfigError(
                f"degree-d needs dim! permutations; dim {self.dimension} "
                f"exceeds the cap of {self.oracle_cap}")
        if self.suite in ("det-mult", "charpoly") and self.size > 6:
            raise ConfigError("the Leibniz oracle is capped at size 6")
        if self.suite == "charpoly" and self.dimension != self.size:
            raise ConfigError(
                "charpoly compares against det(t-x) of the matrix itself, "
                "so dim must equal size")

    def echo(self) -> dict:
        return {
            "suite": self.suite, "ring": self.ring, "size": self.size,
            "dim": self.dimension, "trials": self.trials, "seed": self.seed,
            "bound": self.bound, "budget": self.budget,
            "rec_cap": self.rec_cap, "oracle_cap": self.oracle_cap,
            "word_card": self.word_card, "pair_sum": self.pair_sum,
            "taylor_max_n": self.taylor_max_n,
        }


@dataclass(frozen=True)
class CheckRecord:
    name: str
    trial: int
    inputs: tuple
    lhs: str
    rhs: str
    ok: bool
    negative_control: bool = False

    @property
    def behaved(self) -> bool:
        return (not self.ok) if self.negative_control else self.ok

    def to_dict(self) -> dict:
        return {
            "name": self.name, "trial": self.trial,
            "inputs": list(self.inputs), "lhs": self.lhs, "rhs": self.rhs,
            "ok": self.ok, "negative_control": self.negative_control,
            "behaved": self.behaved,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: dict
    records: tuple
    duration_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.behaved for r in self.records)

    def counts(self) -> dict:
        return {
            "checks": len(self.records),
            "behaved": sum(1 for r in self.records if r.behaved),
            "misbehaved": sum(1 for r in self.records if not r.behaved),
            "negative_controls": sum(1 for r in self.records
                                     if r.negative_control),
        }

    def reproductions(self) -> list:
        return [{"seed": self.config["seed"], "trial": r.trial, "name": r.name}
                for r in self.records if not r.behaved]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "checks": [r.to_dict() for r in self.records],
            "counts": self.counts(),
            "pass": self.passed,
            "reproductions": self.reproductions(),
            "duration_seconds": self.duration_seconds,
        }

    def text_lines(self, quiet: bool = False) -> list:
        counts = self.counts()
        status = "PASS" if self.passed else "FAIL"
        ring = self.config["ring"]
        head = (f"suite {self.suite} [ring={ring} dim={self.config['dim']}]: "
                f"{status} ({counts['behaved']}/{counts['checks']} checks, "
                f"{counts['negative_controls']} negative controls) "
                f"in {self.duration_seconds:.2f}s")
        lines = [head]
        if not quiet:
            for r in self.records:
                if not r.behaved:
                    lines.append(f"  MISBEHAVED {r.name} (trial {r.trial}, "
                                 f"seed {self.config['seed']})")
                    for inp in r.inputs:
                        lines.append(f"    input: {inp}")
                    lines.append(f"    lhs: {r.lhs}")
                    lines.append(f"    rhs: {r.rhs}")
        return lines


def _fmt_sum(s: FormalSum, ok: bool) -> str:
    if ok and s.render_length_exceeds(400):
        return f"<formal sum, {s.num_terms()} terms>"
    return s.render()


def _fmt_scalar(ring: Ring, value) -> str:
    return ring.render(value)


# ---------------------------------------------------------------------------
# suite bodies

def _letters(prefix: str, count: int):
    return [f"{prefix}{i + 1}" for i in range(count)]


def _random_multiset(rng, ring, size, bound, card) -> Multiset:
    return Multiset(random_matrix(rng, ring, size, bound)
                    for _ in range(card))


def _suite_assoc(cfg: SuiteConfig) -> list:
    records = []
    if cfg.ring == "words":
        for n in range(cfg.word_card + 1):
            for m in range(cfg.word_card + 1):
                for k in range(cfg.word_card + 1):
                    x = Multiset(Word([l]) for l in _letters("x", n))
                    y = Multiset(Word([l]) for l in _letters("y", m))
                    z = Multiset(Word([l]) for l in _letters("z", k))
                    lhs = formal_product(
                        multiset_product(x, y, cfg.budget),
                        FormalSum.of(z), cfg.budget)
                    rhs = formal_product(
                        FormalSum.of(x),
                        multiset_product(y, z, cfg.budget), cfg.budget)
                    ok = lhs == rhs
                    records.append(CheckRecord(
                        f"assoc-words({n},{m},{k})", 0,
                        (x.render(), y.render(), z.render()),
                        _fmt_sum(lhs, ok), _fmt_sum(rhs, ok), ok))
    else:
        ring = cfg.ring_obj()
        for trial in range(cfg.trials):
            rng = substream(cfg.seed, trial)
            cards = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            x = _random_multiset(rng, ring, cfg.size, cfg.bound, cards[0])
            y = _random_multiset(rng, ring, cfg.size, cfg.bound, cards[1])
            z = _random_multiset(rng, ring, cfg.size, cfg.bound, cards[2])
            lhs = formal_product(multiset_product(x, y, cfg.budget),
                                 FormalSum.of(z), cfg.budget)
            rhs = formal_product(FormalSum.of(x),
                                 multiset_product(y, z, cfg.budget), cfg.budget)
            ok = lhs == rhs
            records.append(CheckRecord(
                f"assoc-matrix{cards}", trial,
                (x.render(), y.render(), z.render()),
                _fmt_sum(lhs, ok), _fmt_sum(rhs, ok), ok))

    # negative control: a corrupted right-hand side must be detected
    x = Multiset([Word(["a"]), Word(["b"])])
    y = Multiset([Word(["c"])])
    z = Multiset([Word(["d"])])
    lhs = formal_product(multiset_product(x, y), FormalSum.of(z))
    rhs = (formal_product(FormalSum.of(x), multiset_product(y, z))
           + FormalSum.unit())
    ok = lhs == rhs
    records.append(CheckRecord(
        "assoc-corrupted-control", 0,
        (x.render(), y.render(), z.render()),
        _fmt_sum(lhs, ok), _fmt_sum(rhs, ok) + " (one spurious term added)",
        ok, negative_control=True))
    return records


_HOM_ALPHABET = ("a", "b", "c", "d")


def _random_word_sum(rng, max_terms=3, max_card=2, coeff_bound=3) -> FormalSum:
    acc = FormalSum.zero()
    for _ in range(rng.randint(1, max_terms)):
        card = rng.randint(0, max_card)
        ms = Multiset(random_word(rng, _HOM_ALPHABET, 2) for _ in range(card))
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-coeff_bound, coeff_bound)
        acc = acc + FormalSum.of(ms, coeff)
    return acc


def _suite_functoriality(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    records = []
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        s = _random_word_sum(rng)
        t = _random_word_sum(rng)
        hom = LetterHom({letter: random_matrix(rng, ring, cfg.size, cfg.bound)
                         for letter in _HOM_ALPHABET})
        lhs = map_formal(hom, formal_product(s, t, cfg.budget))
        rhs = formal_product(map_formal(hom, s), map_formal(hom, t),
                             cfg.budget)
        ok = lhs == rhs
        records.append(CheckRecord(
            "functoriality", trial, (s.render(), t.render()),
            _fmt_sum(lhs, ok), _fmt_sum(rhs, ok), ok))

    # negative control: mapping the two factors through different
    # homomorphisms must break the identity
    a = Matrix(QQ, [[1, 1], [0, 1]])
    b = Matrix(QQ, [[1, 0], [1, 1]])
    hom1 = LetterHom({"a": a})
    hom2 = LetterHom({"a": b})
    s = FormalSum.of(Multiset([Word(["a"])]))
    lhs = map_formal(hom1, formal_product(s, s))
    rhs = formal_product(map_formal(hom1, s), map_formal(hom2, s))
    ok = lhs == rhs
    records.append(CheckRecord(
        "functoriality-mixed-hom-control", 0, (s.render(),),
        _fmt_sum(lhs, ok), _fmt_sum(rhs, ok), ok, negative_control=True))
    return records


def _pairs_up_to(total: int) -> list:
    return [(n, s - n) for s in range(total + 1) for n in range(s + 1)]


def _suite_product_formula(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    f = matrix_trace(ring, cfg.size, cfg.dimension, pseudocharacter=False,
                     rec_cap=cfg.rec_cap, oracle_cap=cfg.oracle_cap)
    pairs = _pairs_up_to(cfg.pair_sum)
    records = []
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        n, m = pairs[trial % len(pairs)]
        x = _random_multiset(rng, ring, cfg.size, cfg.bound, n)
        y = _random_multiset(rng, ring, cfg.size, cfg.bound, m)
        lhs, rhs, ok = product_formula_check(f, x, y, budget=cfg.budget)
        records.append(CheckRecord(
            f"product-formula({n},{m})", trial, (x.render(), y.render()),
            _fmt_scalar(ring, lhs), _fmt_scalar(ring, rhs), ok))

    # negative control: a non-central function must break the formula
    g = CentralFunction(lambda mat: mat.entry(0, 1), 2, QQ,
                        domain="M2(rational)", name="corner")
    x = Multiset([Matrix(QQ, [[-1, 1], [1, 1]]),
                  Matrix(QQ, [[0, 3], [-1, 0]])])
    y = Multiset([Matrix(QQ, [[-3, 1], [-2, -3]])])
    lhs, rhs, ok = product_formula_check(g, x, y)
    records.append(CheckRecord(
        "product-formula-noncentral-control", 0, (x.render(), y.render()),
        _fmt_scalar(QQ, lhs), _fmt_scalar(QQ, rhs), ok,
        negative_control=True))
    return records


def _suite_degree_d(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    d = cfg.dimension
    f = matrix_trace(ring, cfg.size, d, rec_cap=cfg.rec_cap,
                     oracle_cap=cfg.oracle_cap)
    records = []
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        xs = tuple(random_matrix(rng, ring, cfg.size, cfg.bound)
                   for _ in range(d))
        ys = tuple(random_matrix(rng, ring, cfg.size, cfg.bound)
                   for _ in range(d))
        lhs, rhs, ok = degree_product_check(f, xs, ys)
        records.append(CheckRecord(
            "degree-d", trial,
            tuple(x.render() for x in xs) + tuple(y.render() for y in ys),
            _fmt_scalar(ring, lhs), _fmt_scalar(ring, rhs), ok))

    # negative control: trace on M2 declared with dimension 1
    g = matrix_trace(QQ, 2, 1)
    x = Matrix(QQ, [[1, 2], [3, 4]])
    y = Matrix(QQ, [[0, 1], [1, 0]])
    lhs, rhs, ok = degree_product_check(g, (x,), (y,))
    records.append(CheckRecord(
        "degree-d-wrong-dim-control", 0, (x.render(), y.render()),
        _fmt_scalar(QQ, lhs), _fmt_scalar(QQ, rhs), ok,
        negative_control=True))
    return records


def _suite_det_mult(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    f = matrix_trace(ring, cfg.size, cfg.dimension, rec_cap=cfg.rec_cap,
                     oracle_cap=cfg.oracle_cap)
    records = []
    identity = Matrix.identity(ring, cfg.size)
    det_one = determinant(f, identity)
    ok = det_one == ring.one()
    records.append(CheckRecord(
        "det-of-unit", 0, (identity.render(),),
        _fmt_scalar(ring, det_one), _fmt_scalar(ring, ring.one()), ok))
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        x = random_matrix(rng, ring, cfg.size, cfg.bound)
        y = random_matrix(rng, ring, cfg.size, cfg.bound)
        dx = determinant(f, x)
        oracle = leibniz_det(x)
        ok = dx == oracle
        records.append(CheckRecord(
            "det-vs-leibniz", trial, (x.render(),),
            _fmt_scalar(ring, dx), _fmt_scalar(ring, oracle), ok))
        lhs, rhs, ok = multiplicativity_check(f, x, y)
        records.append(CheckRecord(
            "det-multiplicative", trial, (x.render(), y.render()),
            _fmt_scalar(ring, lhs), _fmt_scalar(ring, rhs), ok))

    # negative control: trace on M2 declared with dimension 1
    g = matrix_trace(QQ, 2, 1)
    x = Matrix(QQ, [[1, 2], [3, 4]])
    y = Matrix(QQ, [[0, 1], [1, 0]])
    lhs, rhs, ok = multiplicativity_check(g, x, y)
    records.append(CheckRecord(
        "det-mult-wrong-dim-control", 0, (x.render(), y.render()),
        _fmt_scalar(QQ, lhs), _fmt_scalar(QQ, rhs), ok,
        negative_control=True))
    return records


def _suite_charpoly(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    f = matrix_trace(ring, cfg.size, cfg.dimension, rec_cap=cfg.rec_cap,
                     oracle_cap=cfg.oracle_cap)
    records = []
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        x = random_matrix(rng, ring, cfg.size, cfg.bound)
        cp = char_poly(f, x)
        oracle = char_poly_leibniz(x)
        ok = (len(cp.coefficients) == len(oracle)
              and all(a == b for a, b in zip(cp.coefficients, oracle)))
        records.append(CheckRecord(
            "charpoly-vs-leibniz", trial, (x.render(),),
            cp.render(),
            " , ".join(ring.render(c) for c in oracle) + " (low to high)",
            ok))
        got = cp.trace()
        expected = f(x)
        ok = cp.is_monic() and got == expected
        records.append(CheckRecord(
            "charpoly-trace-roundtrip", trial, (x.render(),),
            _fmt_scalar(ring, got), _fmt_scalar(ring, expected), ok))
        interp = char_poly_interpolated(f, x)
        ok = cp == interp
        records.append(CheckRecord(
            "charpoly-vs-interpolation", trial, (x.render(),),
            cp.render(), interp.render(), ok))

    # negative control: wrong declared dimension gives the wrong degree
    g = matrix_trace(QQ, 2, 1)
    x = Matrix(QQ, [[1, 2], [3, 4]])
    cp = char_poly(g, x)
    oracle = char_poly_leibniz(x)
    ok = (len(cp.coefficients) == len(oracle)
          and all(a == b for a, b in zip(cp.coefficients, oracle)))
    records.append(CheckRecord(
        "charpoly-wrong-dim-control", 0, (x.render(),),
        cp.render(), " , ".join(QQ.render(c) for c in oracle), ok,
        negative_control=True))
    return records


def _suite_taylor_equiv(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    f = matrix_trace(ring, cfg.size, cfg.dimension, pseudocharacter=False,
                     rec_cap=cfg.rec_cap, oracle_cap=cfg.oracle_cap)
    records = []
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, trial)
        n = trial % cfg.taylor_max_n + 1
        args = tuple(random_matrix(rng, ring, cfg.size, cfg.bound)
                     for _ in range(n))
        lhs = recursive_form(f, args)
        rhs = cycle_sum_form(f, args)
        ok = lhs == rhs
        records.append(CheckRecord(
            f"taylor-equiv(n={n})", trial, tuple(a.render() for a in args),
            _fmt_scalar(ring, lhs), _fmt_scalar(ring, rhs), ok))

    # negative control: a non-central function separates the two
    # definitions once cycle rotations matter (n = 4)
    g = CentralFunction(lambda mat: mat.entry(0, 1), 2, QQ,
                        domain="M2(rational)", name="corner")
    args = (Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[0, 1], [1, 0]]),
            Matrix(QQ, [[2, 1], [0, 1]]), Matrix(QQ, [[1, 0], [5, 2]]))
    lhs = recursive_form(g, args)
    rhs = cycle_sum_form(g, args)
    ok = lhs == rhs
    records.append(CheckRecord(
        "taylor-equiv-noncentral-control", 0,
        tuple(a.render() for a in args),
        _fmt_scalar(QQ, lhs), _fmt_scalar(QQ, rhs), ok,
        negative_control=True))
    return records


def _suite_pseudochar_axioms(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    f = matrix_trace(ring, cfg.size, cfg.dimension, rec_cap=cfg.rec_cap,
                     oracle_cap=cfg.oracle_cap)
    rng = substream(cfg.seed, 0)
    count = min(cfg.trials, 12)  # axiom checks scan all pairs of samples
    samples = [random_matrix(rng, ring, cfg.size, cfg.bound)
               for _ in range(count)]
    report = check_pseudocharacter(f, samples)
    sample_renders = tuple(s.render() for s in samples)
    records = [CheckRecord(f"axiom-{e.name}", 0, sample_renders,
                           e.detail, "expected to hold", e.ok)
               for e in report.entries]

    # negative control: declared dimension 3 for the 2x2 trace
    g = matrix_trace(QQ, 2, 3, pseudocharacter=False)
    bad = check_pseudocharacter(
        g, [Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[0, 1], [1, 0]])])
    records.append(CheckRecord(
        "axioms-wrong-dim-control", 0, ("trace on M2 declared dim 3",),
        bad.render().replace("\n", "; "), "expected to fail",
        bad.passed, negative_control=True))
    return records


_SUITE_BODIES = {
    "assoc": _suite_assoc,
    "functoriality": _suite_functoriality,
    "product-formula": _suite_product_formula,
    "degree-d": _suite_degree_d,
    "det-mult": _suite_det_mult,
    "charpoly": _suite_charpoly,
    "taylor-equiv": _suite_taylor_equiv,
    "pseudochar-axioms": _suite_pseudochar_axioms,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Validate the configuration, run the suite, and assemble its report.

    Deterministic given (suite, seed, config): trials draw from per-index
    substreams, so the report body never depends on timing or ordering.
    """
    cfg.validate()
    start = time.perf_counter()
    records = _SUITE_BODIES[cfg.suite](cfg)
    duration = time.perf_counter() - start
    return SuiteReport(cfg.suite, cfg.echo(), tuple(records), duration)


def default_all_configs(seed: int = 0, trials: int = 50, bound: int = 5,
                        budget: int = 10**7, dims=(1, 2, 3),
                        rings=("rational", "mod:7", "mod:101"),
                        include_words: bool = True) -> list:
    """The default verification matrix: every matrix suite on each
    (dimension, ring) cell, plus the exhaustive word associativity suite."""
    configs = []
    if include_words:
        configs.append(SuiteConfig("assoc", ring="words", seed=seed,
                                   trials=trials, bound=bound, budget=budget))
    matrix_suites = ("assoc", "functoriality", "product-formula", "degree-d",
                     "det-mult", "charpoly", "taylor-equiv",
                     "pseudochar-axioms")
    for ring in rings:
        for dim in dims:
            for suite in matrix_suites:
                configs.append(SuiteConfig(
                    suite, ring=ring, size=dim, dim=dim, seed=seed,
                    trials=trials, bound=bound, budget=budget))
    return configs
