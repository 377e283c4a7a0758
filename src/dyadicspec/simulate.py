"""Finite diagonal model of the trivial-extension semigroup.

The model keeps K feasible threads (the dense points of the diagonal
construction) and d-dimensional coefficient blocks.  A positive dyadic
time t = S / 2^L with S odd acts on block k by the scalar
point_L(thread_k)^S; the scalar's angle and log-modulus are tracked
exactly (one float conversion at the very end), so the semigroup law is
an identity of PiLinear values rather than a float approximation.

Also here: the quasi-uniform subcover criterion over the level sets (the
projections of the inverse limit), and the sampled joint-spectrum
residual for candidate eigenvalue prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exactnum import PiLinear, reduce_mod_2pi
from .levels import LevelCache, LevelPoint, power_levelset, sup_abs_one_minus
from .realbounds import compare_abs1m_sq
from .spectrum import (
    ConsistencyError,
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SpectrumSet,
    VLine,
    VSegment,
    real_part_range,
)
from .threads import Thread, evaluate, feasible_branches

IntSeq = Union[Callable[[int], int], Sequence[int]]


class DyadicRangeError(ValueError):
    pass


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DiagonalModel:
    spectrum: SpectrumSet
    threads: tuple[Thread, ...]
    block_dim: int
    level_cap: int

    def __post_init__(self):
        if not self.threads:
            raise ValueError("model needs at least one thread")
        if self.block_dim < 1 or self.level_cap < 1:
            raise ValueError("block_dim and level_cap must be >= 1")
        cache = LevelCache(self.spectrum)
        for th in self.threads:
            evaluate(cache, th, self.level_cap)  # raises if infeasible
        object.__setattr__(self, "_cache", cache)

    @property
    def cache(self) -> LevelCache:
        return self._cache  # type: ignore[attr-defined]


@dataclass(frozen=True)
class TestVector:
    blocks: np.ndarray  # complex, shape (K, d)

    __test__ = False  # not a pytest class

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "TestVector":
        return cls(np.asarray(rows, dtype=np.complex128))

    @property
    def weights(self) -> np.ndarray:
        return np.sum(np.abs(self.blocks) ** 2, axis=1)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.blocks) ** 2)))


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
    out = []
    for th in model.threads:
        p = evaluate(model.cache, th, level)
        out.append((p.log_mod * power, reduce_mod_2pi(p.angle.scaled(power))))
    return tuple(out)


def scalar_to_complex(log_mod: Fraction, angle: PiLinear, digits: int = 15) -> complex:
    lo, hi = angle.bounds(digits)
    a = float((lo + hi) / 2)
    r = math.exp(float(log_mod))
    return complex(r * math.cos(a), r * math.sin(a))


def apply_semigroup(
    model: DiagonalModel, t: DyadicTime, v: TestVector, digits: int = 15
) -> TestVector:
    """Scale block k by the exact multiplier, floated once at the end."""
    if v.blocks.shape[0] != len(model.threads):
        raise ValueError("block count does not match the model")
    scalars = np.array(
        [scalar_to_complex(lm, ang, digits) for lm, ang in multipliers(model, t)]
    )
    return TestVector(v.blocks * scalars[:, None])


@dataclass(frozen=True)
class NormBound:
    ok: bool
    level: int
    max_log_mod: Fraction
    bound_log_mod: Fraction
    measured: float


def norm_bound_check(model: DiagonalModel, n: int) -> NormBound:
    """max_k |point_n(thread_k)| <= exp(zeta / 2^n), compared on exact logs."""
    if n > model.level_cap:
        raise DyadicRangeError(f"level {n} exceeds cap {model.level_cap}")
    _, zeta = real_part_range(model.spectrum)
    bound = zeta * Fraction(1, 2**n)
    worst = None
    for th in model.threads:
        lm = evaluate(model.cache, th, n).log_mod
        if worst is None or lm > worst:
            worst = lm
    return NormBound(
        ok=worst <= bound,
        level=n,
        max_log_mod=worst,
        bound_log_mod=bound,
        measured=math.exp(float(worst)),
    )


# ---------------------------------------------------------------------------
# quasi-uniform subcovers


@dataclass(frozen=True)
class CoverResult:
    status: str  # "found" | "absent" | "unknown"
    indices: Optional[tuple[int, ...]]
    sup_sq: Optional[tuple[Fraction, Fraction]]  # certified sup for "found"
    absent_witness: Optional[Thread]


def _seq_at(seq: IntSeq, n: int) -> int:
    return seq(n) if callable(seq) else seq[n]


def quasi_uniform_cover(
    Z: SpectrumSet,
    L_seq: IntSeq,
    S_seq: IntSeq,
    eps: Fraction,
    n0: int = 1,
    search_bound: int = 30,
    cache: Optional[LevelCache] = None,
    node_budget: int = 50000,
) -> CoverResult:
    """Find indices making min_i |1 - point_{L_i}^{S_i}| < eps everywhere.

    A single index certifies the cover when the sup of |1 - z^S| over level
    L, the projection of the inverse limit, is below eps.  Absence is
    certified by exhibiting one thread that violates every candidate index
    at once (then no finite subfamily can help).  Anything else is
    reported unknown.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cache is None:
        cache = LevelCache(Z)
    eps_sq = Fraction(eps) ** 2
    for n in range(n0, search_bound + 1):
        L, S = _seq_at(L_seq, n), _seq_at(S_seq, n)
        powered = power_levelset(cache.level(L), S)
        sup = sup_abs_one_minus(powered)
        if sup.sq_hi < eps_sq:
            return CoverResult("found", (n,), (sup.sq_lo, sup.sq_hi), None)
    witness = _blocking_thread(cache, L_seq, S_seq, eps_sq, n0, search_bound, node_budget)
    if witness is not None:
        return CoverResult("absent", None, None, witness)
    return CoverResult("unknown", None, None, None)


def _power_point(p: LevelPoint, s: int) -> LevelPoint:
    return LevelPoint(p.log_mod * s, reduce_mod_2pi(p.angle.scaled(s)))


def _blocking_thread(
    cache: LevelCache,
    L_seq: IntSeq,
    S_seq: IntSeq,
    eps_sq: Fraction,
    n0: int,
    search_bound: int,
    node_budget: int,
) -> Optional[Thread]:
    """A thread with |1 - point_{L_n}^{S_n}|^2 >= eps^2 for every candidate
    index; its existence defeats every index subfamily simultaneously."""
    checks: dict[int, list[int]] = {}
    for n in range(n0, search_bound + 1):
        checks.setdefault(_seq_at(L_seq, n), []).append(_seq_at(S_seq, n))
    depth = max(checks)

    def passes(level: int, p: LevelPoint) -> bool:
        for s in checks.get(level, ()):
            q = _power_point(p, s)
            if compare_abs1m_sq(q.log_mod, q.angle, eps_sq) < 0:
                return False
        return True

    from .threads import _search_seeds  # shared candidate heuristic

    budget = node_budget
    for seed in _search_seeds(cache.level(0)):
        if not passes(0, seed):
            continue
        stack = [(0, seed, ())]
        while stack and budget > 0:
            level, p, bits = stack.pop()
            budget -= 1
            if level == depth:
                return Thread(0, seed, bits)
            children = [
                (bit, q)
                for bit, q in feasible_branches(cache, level, p)
                if passes(level + 1, q)
            ]
            children.sort(
                key=lambda bq: (
                    (1 - math.cos(float(bq[1].angle))),
                    -bq[0],
                )
            )
            for bit, q in children:
                stack.append((level + 1, q, bits + (bit,)))
        if budget <= 0:
            break
    return None


# ---------------------------------------------------------------------------
# joint-spectrum residual


@dataclass(frozen=True)
class ResidualReport:
    residual: float  # min over samples of the normalized weighted sum
    raw: float  # same without normalizers
    argmin: complex
    sample_count: int
    consistency: tuple[bool, ...]  # lambda_{n+1}^2 == lambda_n per step
    consistent: bool


def _sample_spectrum(Z: SpectrumSet, density: int, window: float) -> np.ndarray:
    per = max(16, density // max(1, len(Z.primitives)))
    chunks: list[np.ndarray] = []
    for p in Z.primitives:
        if isinstance(p, Point):
            chunks.append(np.array([complex(p.re, float(p.im))]))
        elif isinstance(p, VSegment):
            u = np.linspace(float(p.im_lo), float(p.im_hi), per)
            chunks.append(float(p.re) + 1j * u)
        elif isinstance(p, ILattice):
            span = int(math.ceil(window / float(p.step))) + 1
            kk = min(per // 2, max(span, 2))
            ks = np.arange(-kk, kk + 1)
            chunks.append(float(p.re) + 1j * (float(p.base) + ks * float(p.step)))
        elif isinstance(p, VLine):
            u = np.linspace(-window, window, per)
            chunks.append(float(p.re) + 1j * u)
        elif isinstance(p, Rect):
            side = max(3, math.isqrt(per))
            if side % 2 == 0:
                side += 1  # odd grid keeps midpoints (and 0 when centered)
            s = np.linspace(float(p.re_lo), float(p.re_hi), side)
            u = np.linspace(float(p.im_lo), float(p.im_hi), side)
            grid = s[:, None] + 1j * u[None, :]
            chunks.append(grid.ravel())
        elif isinstance(p, PrimeFamily):
            vals = []
            for j in p.primes():
                vals.append(complex(0, float(p.alpha(j))))
                vals.append(complex(0, float(p.beta(j))))
            chunks.append(np.array(vals))
        else:
            raise TypeError(type(p).__name__)
    return np.concatenate(chunks)


def joint_spectrum_residual(
    Z: SpectrumSet,
    lambdas: Sequence[complex],
    sample_density: int = 10000,
    consistency_tol: float = 1e-9,
) -> ResidualReport:
    """Sampled infimum of sum_n 2^-n |lambda_n - exp(z/2^n)|^2 / B_n over Z.

    B_n = (1 + exp(zeta / 2^n))^2 normalizes each term by the square of the
    worst modulus the exponential image can reach, keeping terms O(1)
    without tying the scale to |lambda_n|.  A small residual is necessary
    for the prefix to extend to a joint-spectrum point; the square-chain
    consistency lambda_{n+1}^2 = lambda_n is reported separately.
    """
    if not lambdas:
        raise ValueError("need at least lambda_0")
    N = len(lambdas) - 1
    _, zeta = real_part_range(Z)
    window = (2.0 ** (N + 1)) * math.pi
    z = _sample_spectrum(Z, sample_density, window)
    total = np.zeros(z.shape, dtype=float)
    raw = np.zeros(z.shape, dtype=float)
    for n, lam in enumerate(lambdas):
        w = np.exp(z / 2.0**n)
        phi = np.abs(lam - w) ** 2
        b = (1.0 + math.exp(float(zeta) / 2.0**n)) ** 2
        total += phi / b / 2.0**n
        raw += phi / 2.0**n
    idx = int(np.argmin(total))
    consistency = tuple(
        bool(abs(lambdas[i + 1] ** 2 - lambdas[i]) <= consistency_tol)
        for i in range(N)
    )
    return ResidualReport(
        residual=float(total[idx]),
        raw=float(raw.min()),
        argmin=complex(z[idx]),
        sample_count=int(z.size),
        consistency=consistency,
        consistent=all(consistency),
    )


def continuity_trace(
    model: DiagonalModel, times: Sequence[DyadicTime], digits: int = 15
) -> list[tuple[str, int, float]]:
    """Rows (time, block index, |1 - multiplier|) for plotting profiles."""
    rows = []
    for t in times:
        for k, (lm, ang) in enumerate(multipliers(model, t)):
            val = abs(1 - scalar_to_complex(lm, ang, digits))
            rows.append((str(t.value), k, val))
    return rows
