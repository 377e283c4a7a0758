"""Finite diagonal model of the trivial-extension semigroup.

The model keeps K feasible threads (the dense points of the diagonal
construction), each with its checked points from its base level to the
level cap, and d-dimensional coefficient blocks.  `default_model` grows
its threads greedily with `threads.grow`; `model_from_threads` walks
threads the caller gives once each with `threads.walk`.  A positive dyadic
time t = S / 2^L with S odd acts on block k by the scalar
point_L(thread_k)^S; the scalar's angle and log-modulus are tracked
exactly (one float conversion at the very end), so the semigroup law is
an identity of PiLinear values rather than a float approximation.

Also here: the quasi-uniform subcover criterion over the level sets (the
projections of the inverse limit), and the sampled joint-spectrum
residual for candidate eigenvalue prefixes.

The test vectors and the residual samples are plain Python `complex`
values; the module needs nothing beyond the standard library.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactnum import PiLinear, reduce_mod_2pi
from .levels import LevelCache, LevelPoint, float_polar
from .realbounds import compare_abs1m_sq
from .records import record
from .spectrum import (
    ConsistencyError,
    SectionInterval,
    SectionLattice,
    SectionPart,
    SectionPoints,
    SpectrumError,
    SpectrumSet,
    real_part_range,
)
from .threads import Thread, grow, level_seeds, search, search_seeds, tail_closes, walk


class DyadicRangeError(ValueError):
    pass


@record
class DyadicTime:
    """Positive dyadic rational k / 2^m, stored reduced (k odd unless m=0)."""

    k: int
    m: int

    def __post_init__(self):
        if self.k <= 0 or self.m < 0:
            raise ValueError("dyadic time must be positive")
        if self.m > 0 and self.k % 2 == 0:
            raise ValueError("not reduced: even numerator with m > 0")

    @classmethod
    def from_fraction(cls, value: Union[Fraction, int, str]) -> "DyadicTime":
        v = Fraction(value)
        if v <= 0:
            raise ValueError("dyadic time must be positive")
        den = v.denominator
        if den & (den - 1):
            raise ValueError(f"{v} is not dyadic (denominator not a power of two)")
        return cls(v.numerator, den.bit_length() - 1)

    @property
    def value(self) -> Fraction:
        return Fraction(self.k, 2**self.m)

    def __str__(self) -> str:
        return f"{self.k}/2^{self.m}" if self.m else str(self.k)


@record
class Decomposition:
    """t = sum of 2^-exponents; first = min, last = max, odd_part satisfies
    t = odd_part / 2^last exactly."""

    first: int
    last: int
    odd_part: int
    exponents: tuple[int, ...]


def decompose(t: DyadicTime, cap: Fraction = Fraction(8)) -> Decomposition:
    """Binary decomposition of a positive dyadic time.

    The exponents may be nonpositive when t >= 1 (integer bits).
    """
    if t.value >= cap:
        raise DyadicRangeError(f"time {t} exceeds the cap {cap}")
    k, m = t.k, t.m
    v2 = (k & -k).bit_length() - 1
    exponents = tuple(m - b for b in range(k.bit_length() - 1, -1, -1) if k >> b & 1)
    last = m - v2
    odd = k >> v2
    if not (
        odd % 2 == 1
        and t.value == Fraction(odd) * Fraction(2) ** (-last)
        and sum(Fraction(2) ** (-e) for e in exponents) == t.value
    ):
        raise ConsistencyError(f"binary decomposition of {t} does not add up to it")
    return Decomposition(exponents[0], last, odd, exponents)


# ---------------------------------------------------------------------------
# diagonal model


@record
class DiagonalModel:
    spectrum: SpectrumSet
    threads: tuple[Thread, ...]
    level_cap: int
    walks: tuple[tuple[LevelPoint, ...], ...]  # per thread: its checked points, base level to cap

    def __post_init__(self):
        if not self.threads:
            raise ValueError("model needs at least one thread")
        if self.level_cap < 1:
            raise ValueError("level_cap must be >= 1")
        if [len(w) for w in self.walks] != [self.level_cap + 1 - th.base_level for th in self.threads]:
            raise ValueError("each thread needs its points from its base level to the cap")

    def points(self, n: int) -> tuple[LevelPoint, ...]:
        """Every thread's point at level n."""
        if not all(th.base_level <= n <= self.level_cap for th in self.threads):
            raise ValueError(f"level {n} outside the walked levels")
        return tuple(w[n - th.base_level] for th, w in zip(self.threads, self.walks))


def model_from_threads(cache: LevelCache, threads: Sequence[Thread], level_cap: int) -> DiagonalModel:
    """The model of the given threads over `cache`'s spectrum; one walk per
    thread, in `cache`, checks feasibility and keeps every point."""
    walks = tuple(tuple(p for _, p in walk(cache, th, level_cap)) for th in threads)
    return DiagonalModel(cache.Z, tuple(threads), level_cap, walks)


def default_model(cache: LevelCache, search_depth: int) -> DiagonalModel:
    """A small deterministic model: the greedy threads of the first three
    distinct sup candidates of level 0, to level max(search_depth, 30);
    a seed whose two roots both leave some level set is dropped."""
    cap = max(search_depth, 30)
    grown = [g for g in (grow(cache, seed, cap) for seed in level_seeds(cache, 0)[:3]) if g is not None]
    if not grown:
        raise SpectrumError("no feasible threads found for the model")
    threads, walks = zip(*grown)
    return DiagonalModel(cache.Z, threads, cap, walks)


@record
class TestVector:
    blocks: tuple[tuple[complex, ...], ...]  # K rows of d coefficients

    __test__ = False  # not a pytest class

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "TestVector":
        return cls(tuple(tuple(complex(x) for x in row) for row in rows))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(sum(abs(x) ** 2 for x in row) for row in self.blocks)

    def norm(self) -> float:
        return math.sqrt(sum(self.weights))


def multipliers(model: DiagonalModel, t: DyadicTime) -> tuple[tuple[Fraction, PiLinear], ...]:
    """Exact per-block scalars for time t: (log-modulus, reduced angle).

    With t = S / 2^L (S odd) the scalar on block k is point_L(thread_k)^S;
    integer-heavy times (L <= 0) fold into powers of the level-0 point.
    """
    d = decompose(t, cap=Fraction(2) ** model.level_cap)
    L, S = d.last, d.odd_part
    level = max(L, 0)
    power = S * 2 ** (level - L)
    if level > model.level_cap:
        raise DyadicRangeError(
            f"time {t} needs level {level} > cap {model.level_cap}"
        )
    return tuple(
        (p.log_mod * power, reduce_mod_2pi(p.angle.scaled(power))) for p in model.points(level)
    )


def scalar_to_complex(log_mod: Fraction, angle: PiLinear) -> complex:
    return complex(*float_polar(log_mod, float(angle)))


def apply_semigroup(model: DiagonalModel, t: DyadicTime, v: TestVector) -> TestVector:
    """Scale block k by the exact multiplier, floated once at the end."""
    if len(v.blocks) != len(model.threads):
        raise ValueError("block count does not match the model")
    scalars = [scalar_to_complex(lm, ang) for lm, ang in multipliers(model, t)]
    return TestVector(tuple(tuple(x * c for x in row) for row, c in zip(v.blocks, scalars)))


@record
class NormBound:
    ok: bool
    level: int
    max_log_mod: Fraction
    bound_log_mod: Fraction


def norm_bound_check(model: DiagonalModel, n: int) -> NormBound:
    """max_k |point_n(thread_k)| <= exp(zeta / 2^n), compared on exact logs."""
    if n > model.level_cap:
        raise DyadicRangeError(f"level {n} exceeds cap {model.level_cap}")
    _, zeta = real_part_range(model.spectrum)
    bound = zeta * Fraction(1, 2**n)
    worst = max(p.log_mod for p in model.points(n))
    return NormBound(
        ok=worst <= bound,
        level=n,
        max_log_mod=worst,
        bound_log_mod=bound,
    )


# ---------------------------------------------------------------------------
# quasi-uniform subcovers


@record
class CoverResult:
    status: str  # "found" | "absent" | "unknown"
    indices: Optional[tuple[int, ...]]
    sup_sq: Optional[tuple[Fraction, Fraction]]  # certified sup for "found"
    absent_witness: Optional[Thread]


def quasi_uniform_cover(
    Z: SpectrumSet,
    eps: Fraction,
    n0: int = 1,
    search_bound: int = 30,
    cache: Optional[LevelCache] = None,
    node_budget: int = 50000,
) -> CoverResult:
    """Find an index n with |1 - point_n| < eps on every thread, reading
    the semigroup at the dyadic times t = 2^-n only.

    The candidate indices are n0..search_bound.  Index n certifies the
    cover when the sup of |1 - z| over level n, the projection of the
    inverse limit, is below eps; that sup is read from `cache`, so covers
    for several eps on one cache compute each level's sup once.  Absence
    is certified by exhibiting one thread that keeps |1 - z| >= eps at
    every candidate index at once (then no finite subfamily can help).
    Anything else is reported unknown.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n0 > search_bound:
        raise ValueError(f"n0 ({n0}) exceeds search_bound ({search_bound}): no candidate index")
    if cache is None:
        cache = LevelCache(Z)
    eps_sq = Fraction(eps) ** 2
    for n in range(n0, search_bound + 1):
        sup = cache.sup(n)
        if sup.sq_hi < eps_sq:
            return CoverResult("found", (n,), (sup.sq_lo, sup.sq_hi), None)

    def keep(level: int, p: LevelPoint) -> bool:
        return level < n0 or compare_abs1m_sq(p.m, p.angle, eps_sq) >= 0

    tail = lambda level, p: tail_closes(cache.Z, level, p, eps_sq)
    witness = search(cache, search_seeds(cache, (0,)), search_bound, keep, node_budget, tail)
    if witness is not None:
        return CoverResult("absent", None, None, witness)
    return CoverResult("unknown", None, None, None)


# ---------------------------------------------------------------------------
# joint-spectrum residual


@record
class ResidualReport:
    residual: float  # min over samples of the normalized weighted sum
    raw: float  # same without normalizers
    argmin: complex
    sample_count: int
    consistency: tuple[bool, ...]  # lambda_{n+1}^2 == lambda_n per step
    consistent: bool


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 2 evenly spaced floats: start + i*step with
    step = (stop - start) / (num - 1), and the last one is stop itself."""
    step = (stop - start) / (num - 1)
    out = [start + i * step for i in range(num)]
    out[-1] = stop
    return out


def _sample_spectrum(Z: SpectrumSet, density: int, window: float) -> list[complex]:
    """Float samples of each primitive: its real range times its section
    part.  One real value takes `per` section samples; a real range takes
    an odd side x side grid, which keeps midpoints (and 0 when centered)."""
    per = max(16, density // max(1, len(Z.primitives)))
    side = max(3, math.isqrt(per))
    side += 1 - side % 2
    out: list[complex] = []
    for p in Z.primitives:
        if p.re_hi is p.re_lo:
            res, count = [float(p.re_lo)], per
        else:
            res, count = _linspace(float(p.re_lo), float(p.re_hi), side), side
        ims = _section_samples(p.section, count, window)
        out.extend(complex(s, u) for s in res for u in ims)
    return out


def _section_samples(S: SectionPart, count: int, window: float) -> list[float]:
    """Float im samples of a section part: each point, `count` spread over
    an interval or over [-window, window] for a line, and the lattice
    members base + k*step for |k| <= kk, where kk covers the window and
    is at most count // 2."""
    if isinstance(S, SectionPoints):
        return [float(v) for v in S.values]
    if isinstance(S, SectionInterval):
        return _linspace(float(S.lo), float(S.hi), count)
    if isinstance(S, SectionLattice):
        base, step = float(S.base), float(S.step)
        kk = min(count // 2, max(int(math.ceil(window / step)) + 1, 2))
        return [base + k * step for k in range(-kk, kk + 1)]
    return _linspace(-window, window, count)


def _sq_dist(lam: complex, w: complex) -> float:
    """|lam - exp(w)|^2, inf past the float range."""
    try:
        return abs(lam - cmath.exp(w)) ** 2
    except OverflowError:
        return math.inf


def _argmin(values: list[float]) -> int:
    """Index of the first NaN, else of the first minimum."""
    for i, x in enumerate(values):
        if math.isnan(x):
            return i
    return values.index(min(values))


def joint_spectrum_residual(
    Z: SpectrumSet,
    lambdas: Sequence[complex],
    sample_density: int = 10000,
) -> ResidualReport:
    """Sampled infimum of sum_n 2^-n |lambda_n - exp(z/2^n)|^2 / B_n over Z.

    B_n = (1 + exp(zeta / 2^n))^2 normalizes each term by the square of the
    worst modulus the exponential image can reach, keeping terms O(1)
    without tying the scale to |lambda_n|.  A small residual is necessary
    for the prefix to extend to a joint-spectrum point; the square-chain
    consistency lambda_{n+1}^2 = lambda_n is reported separately.  When
    zeta > 0 both |...|^2 and B_n are scaled by exp(-2 zeta / 2^n), so no
    exp argument is positive; the raw sum prints inf past the float range.
    """
    if not lambdas:
        raise ValueError("need at least lambda_0")
    N = len(lambdas) - 1
    _, zeta = real_part_range(Z)
    window = (2.0 ** (N + 1)) * math.pi
    z = _sample_spectrum(Z, sample_density, window)
    totals, raws = [], []
    try:
        terms = []
        for n, lam in enumerate(lambdas):
            scale = 2.0**n
            c = max(float(zeta) / scale, 0.0)
            f = math.exp(-c)
            # componentwise: lam * f would turn inf+infj into nan+nanj at f == 1
            lam_f = complex(lam.real * f, lam.imag * f)
            terms.append((lam, lam_f, scale, c, (f + math.exp(float(zeta) / scale - c)) ** 2))
        for zi in z:
            total = raw = 0.0
            for lam, lam_f, scale, c, b in terms:
                w = zi / scale
                total += abs(lam_f - cmath.exp(w - c)) ** 2 / b / scale
                raw += _sq_dist(lam, w) / scale
            totals.append(total)
            raws.append(raw)
    except OverflowError as e:
        raise ValueError(f"joint-spectrum residual: exp overflows a float ({e})") from None
    idx = _argmin(totals)
    consistency = tuple(bool(abs(lambdas[i + 1] ** 2 - lambdas[i]) <= 1e-9) for i in range(N))
    return ResidualReport(
        residual=totals[idx],
        raw=raws[_argmin(raws)],
        argmin=z[idx],
        sample_count=len(z),
        consistency=consistency,
        consistent=all(consistency),
    )


def continuity_trace(model: DiagonalModel, times: Sequence[DyadicTime]) -> list[tuple[str, int, float]]:
    """Rows (time, block index, |1 - multiplier|) for plotting profiles."""
    rows = []
    for t in times:
        for k, (lm, ang) in enumerate(multipliers(model, t)):
            val = abs(1 - scalar_to_complex(lm, ang))
            rows.append((str(t.value), k, val))
    return rows
