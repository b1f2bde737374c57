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
from itertools import permutations

from .elements import LetterHom, Matrix, Word
from .errors import (BudgetExceededError, CapExceededError, ConfigError,
                     NotInvertibleError)
from .multisets import DEFAULT_BUDGET, FormalSum, Multiset, formal_product
from .pseudochar import (ORACLE_CAP, REC_CAP, CentralFunction, CharPoly,
                         _cycles, char_poly, char_poly_interpolated,
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

#: Largest matrix size the Leibniz oracles accept (6! = 720 terms).
_LEIBNIZ_CAP = 6
#: size n -> every permutation of range(n), in lexicographic order, paired
#: with its sign; filled on first use of each size.
_SIGNED_PERMS: dict = {}


def _signed_perms(n: int) -> tuple:
    """The cached ``(perm, sign)`` table of size ``n``.  The cap is checked
    first, so no table larger than 6! entries is ever built."""
    if n > _LEIBNIZ_CAP:
        raise CapExceededError(
            f"Leibniz oracle capped at size {_LEIBNIZ_CAP}, got {n}")
    table = _SIGNED_PERMS.get(n)
    if table is None:
        # the sign is (-1)^(n - number of cycles)
        table = _SIGNED_PERMS[n] = tuple(
            (perm, -1 if (n - len(_cycles(perm))) % 2 else 1)
            for perm in permutations(range(n)))
    return table


def leibniz_det(matrix: Matrix):
    """Determinant by the Leibniz sum over permutations (size <= 6).

    This is the independent oracle for pseudocharacter determinants: it
    never touches the recursive forms, only scalar arithmetic.
    """
    n, ring, rows = matrix.n, matrix.ring, matrix.rows
    acc = None
    for perm, sign in _signed_perms(n):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        term = prod if sign > 0 else -prod
        acc = term if acc is None else acc + term
    return ring.cell_to_scalar(ring.reduce(acc))


def char_poly_leibniz(matrix: Matrix) -> tuple:
    """Coefficients c_0..c_n of det(t*I - x), lowest degree first, by the
    Leibniz sum with each permutation's term held as a coefficient list
    in t: a fixed point i multiplies it by (t - x_ii), any other row
    scales it by -x_i,s(i).  No variable is introduced, so the
    coefficients are scalars of the matrix's own ring (polynomial cells
    give polynomial coefficients).  The modular backend's cells are
    integers in [0, m): the sum is expanded over the integers and reduced
    once at the end (reduction mod m is a ring homomorphism)."""
    n = matrix.n
    table = _signed_perms(n)
    ring, rows = matrix.ring, matrix.rows
    neg = [[-a for a in row] for row in rows]
    acc = [0] * (n + 1)
    for perm, sign in table:
        scale, fixed = sign, []
        for i, j in enumerate(perm):
            if i == j:
                fixed.append(neg[i][i])
            else:
                scale = scale * neg[i][j]
        if scale == 0:
            continue
        coeffs = [scale]
        for a in fixed:  # times (t + a), where a = -x_ii
            coeffs = ([a * coeffs[0]]
                      + [lo + a * hi for lo, hi in zip(coeffs, coeffs[1:])]
                      + [coeffs[-1]])
        for k, c in enumerate(coeffs):
            acc[k] = acc[k] + c
    return tuple(ring.cell_to_scalar(ring.cell(c)) for c in acc)


# ---------------------------------------------------------------------------
# configuration and reports

#: Suites that require the pseudocharacter hypothesis (and hence an
#: invertible dim! in the scalar ring).
_PSEUDO_SUITES = {"degree-d", "det-mult", "charpoly", "pseudochar-axioms"}

#: Fixed suite parameters, echoed in every report's config.
WORD_CARD = 3       # exhaustive word-multiset cardinality cap
PAIR_SUM = 4        # product-formula: max |x| + |y|
TAYLOR_MAX_N = 4    # taylor-equiv: max argument count


class SuiteConfig(FrozenValue):
    """Parameters of one suite run; validation happens in ``validate``."""

    __slots__ = _fields = ("suite", "ring", "size", "dim", "trials", "seed",
                           "bound", "budget")
    _defaults = {
        "ring": "rational",         # rational | mod:<m> | words
        "size": 2,                  # matrix size
        "dim": None,                # declared dimension; defaults to size
        "trials": 50,
        "seed": 0,
        "bound": 5,                 # entries drawn from [-bound, bound]
        "budget": DEFAULT_BUDGET,   # formal-product term budget
    }

    @property
    def dimension(self) -> int:
        return self.size if self.dim is None else self.dim

    def ring_obj(self) -> Ring:
        return ring_from_spec(self.ring)

    def validate(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; "
                              f"choose from {', '.join(SUITE_NAMES)}")
        for name in ("trials", "bound", "budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.size < 1 or self.dimension < 1:
            raise ConfigError("size and dim must be >= 1")
        if self.ring == "words":
            if self.suite != "assoc":
                raise ConfigError(
                    f"ring 'words' only supports the assoc suite, "
                    f"not {self.suite!r}")
            return
        ring = self.ring_obj()
        if self.suite in _PSEUDO_SUITES:
            try:
                ring.inverse_of_factorial(self.dimension)
            except NotInvertibleError as exc:
                raise ConfigError(str(exc)) from None
        if self.suite == "degree-d" and self.dimension > ORACLE_CAP:
            raise ConfigError(
                f"degree-d needs dim! permutations; dim {self.dimension} "
                f"exceeds the cap of {ORACLE_CAP}")
        if self.suite in ("det-mult", "charpoly") and self.size > _LEIBNIZ_CAP:
            raise ConfigError(
                f"the Leibniz oracle is capped at size {_LEIBNIZ_CAP}")
        if self.suite == "charpoly" and self.dimension != self.size:
            raise ConfigError(
                "charpoly compares against det(t-x) of the matrix itself, "
                "so dim must equal size")
        # only two suites can reach the cap: det (dim), vanishing (dim + 1)
        args = {"det-mult": self.dimension,
                "pseudochar-axioms": self.dimension + 1}.get(self.suite, 0)
        if args > REC_CAP:
            raise ConfigError(
                f"{self.suite} evaluates forms of up to {args} arguments, "
                f"more than the recursion cap of {REC_CAP}")

    def echo(self) -> dict:
        return {**self.fields(), "dim": self.dimension,
                "rec_cap": REC_CAP, "oracle_cap": ORACLE_CAP,
                "word_card": WORD_CARD, "pair_sum": PAIR_SUM,
                "taylor_max_n": TAYLOR_MAX_N}


class CheckRecord(FrozenValue):
    __slots__ = _fields = ("name", "trial", "inputs", "lhs", "rhs", "ok",
                           "negative_control")
    _defaults = {"negative_control": False}

    @property
    def behaved(self) -> bool:
        return (not self.ok) if self.negative_control else self.ok

    def to_dict(self) -> dict:
        return {**self.fields(), "inputs": list(self.inputs),
                "behaved": self.behaved}


class SuiteReport(FrozenValue):
    """One suite's records; ``error`` is the text of a budget overrun that
    stopped the suite (its records are then lost and it fails), else
    None."""

    __slots__ = _fields = ("suite", "config", "records", "duration_seconds",
                           "error")
    _defaults = {"error": None}

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
        return [{"seed": self.config["seed"], "trial": r.trial, "name": r.name}
                for r in self.records if not r.behaved]

    def to_dict(self) -> dict:
        body = {
            "suite": self.suite,
            "config": self.config,
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
        ring = self.config["ring"]
        head = (f"suite {self.suite} [ring={ring} dim={self.config['dim']}]: "
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


def _sum_record(name: str, trial: int, inputs: tuple, lhs: FormalSum,
                rhs: FormalSum, negative_control=False,
                rhs_note="") -> CheckRecord:
    """A record whose two sides are formal sums."""
    ok = lhs == rhs
    return CheckRecord(name, trial, inputs, _fmt_sum(lhs, ok),
                       _fmt_sum(rhs, ok) + rhs_note, ok, negative_control)


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


def _trace(cfg: SuiteConfig, pseudocharacter: bool = True):
    """The trace on ``cfg``'s matrices, declared with ``cfg``'s dimension."""
    return matrix_trace(cfg.ring_obj(), cfg.size, cfg.dimension,
                        pseudocharacter=pseudocharacter)


def _draw(rng, cfg: SuiteConfig, ring: Ring, count: int) -> tuple:
    return tuple(random_matrix(rng, ring, cfg.size, cfg.bound)
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


def _suite_assoc(cfg: SuiteConfig) -> list:
    if cfg.ring == "words":
        span = range(WORD_CARD + 1)
        cases = [(f"assoc-words({n},{m},{k})", 0,
                  (_letters("x", n), _letters("y", m), _letters("z", k)))
                 for n in span for m in span for k in span]
    else:
        ring = cfg.ring_obj()
        cases = []
        for trial, rng in _trials(cfg):
            cards = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            cases.append((f"assoc-matrix{cards}", trial,
                          [Multiset(_draw(rng, cfg, ring, c)) for c in cards]))
    records = [_sum_record(name, trial, _renders(*xyz),
                           *_assoc_sides(*xyz, cfg.budget))
               for name, trial, xyz in cases]

    # negative control: a corrupted right-hand side must be detected
    x = Multiset([Word(["a"]), Word(["b"])])
    y = Multiset([Word(["c"])])
    z = Multiset([Word(["d"])])
    lhs, rhs = _assoc_sides(x, y, z)
    records.append(_sum_record(
        "assoc-corrupted-control", 0, _renders(x, y, z), lhs,
        rhs + FormalSum.unit(), True, " (one spurious term added)"))
    return records


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


def _suite_functoriality(cfg: SuiteConfig) -> list:
    ring = cfg.ring_obj()
    records = []
    for trial, rng in _trials(cfg):
        s = _random_word_sum(rng)
        t = _random_word_sum(rng)
        hom = LetterHom({letter: random_matrix(rng, ring, cfg.size, cfg.bound)
                         for letter in _HOM_ALPHABET})
        records.append(_sum_record(
            "functoriality", trial, _renders(s, t),
            formal_product(s, t, cfg.budget).map_elements(hom),
            formal_product(s.map_elements(hom), t.map_elements(hom),
                           cfg.budget)))

    # negative control: mapping the two factors through different
    # homomorphisms must break the identity
    a = Matrix(QQ, [[1, 1], [0, 1]])
    b = Matrix(QQ, [[1, 0], [1, 1]])
    hom1 = LetterHom({"a": a})
    hom2 = LetterHom({"a": b})
    s = FormalSum.of(Multiset([Word(["a"])]))
    records.append(_sum_record(
        "functoriality-mixed-hom-control", 0, _renders(s),
        formal_product(s, s).map_elements(hom1),
        formal_product(s.map_elements(hom1), s.map_elements(hom2)), True))
    return records


def _suite_product_formula(cfg: SuiteConfig) -> list:
    f = _trace(cfg, pseudocharacter=False)
    ring = f.ring
    pairs = [(n, s - n) for s in range(PAIR_SUM + 1) for n in range(s + 1)]
    records = []
    for trial, rng in _trials(cfg):
        n, m = pairs[trial % len(pairs)]
        x = Multiset(_draw(rng, cfg, ring, n))
        y = Multiset(_draw(rng, cfg, ring, m))
        records.append(_scalar_record(
            ring, f"product-formula({n},{m})", trial, _renders(x, y),
            *product_formula_check(f, x, y, budget=cfg.budget)))

    # negative control: a non-central function must break the formula
    x = Multiset([Matrix(QQ, [[-1, 1], [1, 1]]),
                  Matrix(QQ, [[0, 3], [-1, 0]])])
    y = Multiset([Matrix(QQ, [[-3, 1], [-2, -3]])])
    records.append(_scalar_record(
        QQ, "product-formula-noncentral-control", 0, _renders(x, y),
        *product_formula_check(_CORNER, x, y), negative_control=True))
    return records


def _suite_degree_d(cfg: SuiteConfig) -> list:
    f = _trace(cfg)
    records = []
    for trial, rng in _trials(cfg):
        xs = _draw(rng, cfg, f.ring, f.dim)
        ys = _draw(rng, cfg, f.ring, f.dim)
        records.append(_scalar_record(
            f.ring, "degree-d", trial, _renders(*xs, *ys),
            *degree_product_check(f, xs, ys)))

    # negative control: trace on M2 declared with dimension 1
    records.append(_scalar_record(
        QQ, "degree-d-wrong-dim-control", 0, _renders(_X, _Y),
        *degree_product_check(_WRONG_DIM, (_X,), (_Y,)),
        negative_control=True))
    return records


def _suite_det_mult(cfg: SuiteConfig) -> list:
    f = _trace(cfg)
    ring = f.ring
    identity = Matrix.identity(ring, cfg.size)
    records = [_scalar_record(ring, "det-of-unit", 0, _renders(identity),
                              determinant(f, identity), ring.one())]
    for trial, rng in _trials(cfg):
        x = random_matrix(rng, ring, cfg.size, cfg.bound)
        y = random_matrix(rng, ring, cfg.size, cfg.bound)
        records.append(_scalar_record(ring, "det-vs-leibniz", trial,
                                      _renders(x), determinant(f, x),
                                      leibniz_det(x)))
        records.append(_scalar_record(ring, "det-multiplicative", trial,
                                      _renders(x, y),
                                      *multiplicativity_check(f, x, y)))

    # negative control: trace on M2 declared with dimension 1
    records.append(_scalar_record(
        QQ, "det-mult-wrong-dim-control", 0, _renders(_X, _Y),
        *multiplicativity_check(_WRONG_DIM, _X, _Y), negative_control=True))
    return records


def _suite_charpoly(cfg: SuiteConfig) -> list:
    f = _trace(cfg)
    ring = f.ring
    records = []
    for trial, rng in _trials(cfg):
        x = random_matrix(rng, ring, cfg.size, cfg.bound)
        cp = char_poly(f, x)
        oracle = char_poly_leibniz(x)
        records.append(CheckRecord(
            "charpoly-vs-leibniz", trial, _renders(x), cp.render(),
            " , ".join(ring.render(c) for c in oracle) + " (low to high)",
            cp == CharPoly(ring, oracle)))
        got = cp.trace()
        expected = f(x)
        records.append(_scalar_record(
            ring, "charpoly-trace-roundtrip", trial, _renders(x), got,
            expected, cp.is_monic() and got == expected))
        interp = char_poly_interpolated(f, x)
        records.append(CheckRecord(
            "charpoly-vs-interpolation", trial, _renders(x),
            cp.render(), interp.render(), cp == interp))

    # negative control: wrong declared dimension gives the wrong degree
    cp = char_poly(_WRONG_DIM, _X)
    oracle = char_poly_leibniz(_X)
    records.append(CheckRecord(
        "charpoly-wrong-dim-control", 0, _renders(_X), cp.render(),
        " , ".join(QQ.render(c) for c in oracle),
        cp == CharPoly(QQ, oracle), negative_control=True))
    return records


def _suite_taylor_equiv(cfg: SuiteConfig) -> list:
    f = _trace(cfg, pseudocharacter=False)
    records = []
    for trial, rng in _trials(cfg):
        n = trial % TAYLOR_MAX_N + 1
        args = _draw(rng, cfg, f.ring, n)
        records.append(_scalar_record(
            f.ring, f"taylor-equiv(n={n})", trial, _renders(*args),
            recursive_form(f, args), cycle_sum_form(f, args)))

    # negative control: a non-central function separates the two
    # definitions once cycle rotations matter (n = 4)
    args = (_X, _Y, Matrix(QQ, [[2, 1], [0, 1]]), Matrix(QQ, [[1, 0], [5, 2]]))
    records.append(_scalar_record(
        QQ, "taylor-equiv-noncentral-control", 0, _renders(*args),
        recursive_form(_CORNER, args), cycle_sum_form(_CORNER, args),
        negative_control=True))
    return records


def _suite_pseudochar_axioms(cfg: SuiteConfig) -> list:
    f = _trace(cfg)
    rng = substream(cfg.seed, 0)
    count = min(cfg.trials, 12)  # axiom checks scan all pairs of samples
    samples = _draw(rng, cfg, f.ring, count)
    report = check_pseudocharacter(f, samples)
    inputs = _renders(*samples)
    records = [CheckRecord(f"axiom-{e.name}", 0, inputs, e.detail,
                           "expected to hold", e.ok)
               for e in report.entries]

    # negative control: declared dimension 3 for the 2x2 trace
    g = matrix_trace(QQ, 2, 3, pseudocharacter=False)
    bad = check_pseudocharacter(g, [_X, _Y])
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
SUITE_NAMES = tuple(_SUITE_BODIES)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Validate the configuration, run the suite, and assemble its report.

    Deterministic given (suite, seed, config): trials draw from per-index
    substreams, so the report body never depends on timing or ordering.
    A product over the budget stops the suite: its report then fails with
    no records and the exception text as ``error``, and the caller goes
    on with the next suite.
    """
    cfg.validate()
    start = time.perf_counter()
    try:
        records, error = _SUITE_BODIES[cfg.suite](cfg), None
    except BudgetExceededError as exc:
        records, error = (), str(exc)
    duration = time.perf_counter() - start
    return SuiteReport(cfg.suite, cfg.echo(), tuple(records), duration, error)


def cell_configs(ring: str, dim: int, **shared) -> list:
    """Every suite on the matrix cell (ring, dim), at size = dim."""
    return [SuiteConfig(suite, ring=ring, size=dim, dim=dim, **shared)
            for suite in SUITE_NAMES]


def default_all_configs(**shared) -> list:
    """The default verification matrix: every matrix suite on each
    (dimension, ring) cell, plus the exhaustive word associativity suite."""
    configs = [SuiteConfig("assoc", ring="words", **shared)]
    for ring in ("rational", "mod:7", "mod:101"):
        for dim in (1, 2, 3):
            configs += cell_configs(ring, dim, **shared)
    return configs
