"""Symbolic closed subsets of the plane and their vertical-section combinatorics.

A spectrum set is a finite union of primitives (points, vertical segments,
vertical lattices, vertical lines, axis-aligned rectangles, and the
two-angle prime family).  Every primitive is a product: a real range
[re_lo, re_hi] times one section part (points, an interval, a lattice or
the whole line), which is its vertical section at each t in the range.
Everything downstream is derived from these two factors:

* vertical sections S_t = {u : t + iu in Z},
* the antipode condition at level n: S_t - S_t contains an odd multiple
  of 2^n * pi (equivalently, the level-n circle section at radius
  e^{t/2^n} contains a pair of antipodal points),
* the per-section level sets of that condition, with exact tails beyond
  any computed bound,
* closedness of the exponential images exp(Z / 2^n).

All decisions are made in exact arithmetic on PiLinear scalars.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Union

from .exactnum import PiLinear, _rat_gcd, _v2, ceil_ratio, floor_ratio
from .records import record


class SpectrumError(ValueError):
    pass


# ---------------------------------------------------------------------------
# section parts


@record
class SectionPoints:
    values: tuple[PiLinear, ...]


@record
class SectionInterval:
    lo: PiLinear
    hi: PiLinear  # lo < hi strictly (degenerate intervals become points)


@record
class SectionLattice:
    base: PiLinear
    step: PiLinear  # step > 0


@record
class SectionLine:
    pass


SectionPart = Union[SectionPoints, SectionInterval, SectionLattice, SectionLine]

# the order in which the antipode condition pairs section parts
_KIND_ORDER = (SectionPoints, SectionInterval, SectionLattice, SectionLine)

# the bounded section parts; a lattice or a line is unbounded
BOUNDED_PARTS = (SectionPoints, SectionInterval)


# ---------------------------------------------------------------------------
# primitives: a real range [re_lo, re_hi] times a section part


class _OnOneLine:
    """A primitive inside the vertical line at `re`: one real value."""

    @property
    def re_lo(self) -> Fraction:
        return self.re

    @property
    def re_hi(self) -> Fraction:
        return self.re


@record
class Point(_OnOneLine):
    re: Fraction
    im: PiLinear

    @property
    def section(self) -> SectionPart:
        return SectionPoints((self.im,))


@record
class VSegment(_OnOneLine):
    re: Fraction
    im_lo: PiLinear
    im_hi: PiLinear

    def __post_init__(self):
        if self.im_lo > self.im_hi:
            raise SpectrumError("segment with im_lo > im_hi")

    @property
    def section(self) -> SectionPart:
        return SectionInterval(self.im_lo, self.im_hi)


@record
class ILattice(_OnOneLine):
    """Points re + i(base + k*step) for all integers k."""

    re: Fraction
    base: PiLinear
    step: PiLinear

    def __post_init__(self):
        if self.step.sign() <= 0:
            raise SpectrumError("lattice step must be positive")

    @property
    def section(self) -> SectionPart:
        return SectionLattice(self.base, self.step)


@record
class VLine(_OnOneLine):
    re: Fraction

    @property
    def section(self) -> SectionPart:
        return SectionLine()


@record
class Rect:
    re_lo: Fraction
    re_hi: Fraction
    im_lo: PiLinear
    im_hi: PiLinear

    def __post_init__(self):
        if self.re_lo > self.re_hi:
            raise SpectrumError("rectangle with re_lo > re_hi")
        if self.im_lo > self.im_hi:
            raise SpectrumError("rectangle with im_lo > im_hi")

    @property
    def section(self) -> SectionPart:
        return SectionInterval(self.im_lo, self.im_hi)


_NSEQ = re.compile(r"(\d*)j(?:\+(\d+))?")


@record
class PrimeFamily:
    """The purely imaginary two-angle family over primes j >= 3.

    For each prime j the set contains i*a_j and i*b_j with
    a_j = pi/j + 2^(n_j + 1)*pi and b_j = pi/j + 3*2^(n_j)*pi, where
    n_j = seq(j) is strictly increasing.  The family is conceptually
    infinite; J primes are materialized for level computations and the
    tail is handled symbolically (a_j - b_j = -2^(n_j)*pi identically,
    which pins the antipodal schedule for every j).
    """

    n_seq: tuple[int, int] = (2, 0)  # n_j = a*j + b, or as text: 2j, 3j+1, j+4, j
    J: int = 8
    re_lo = re_hi = Fraction(0)

    def __post_init__(self):
        if self.J < 1:
            raise SpectrumError("prime family truncation must be >= 1")
        if isinstance(self.n_seq, str):
            m = _NSEQ.fullmatch(self.n_seq.replace(" ", "").replace("*", ""))
            if m is None:
                raise SpectrumError(f"unsupported n_seq {self.n_seq!r} (expected e.g. '2j' or '2j+1')")
            object.__setattr__(self, "n_seq", (int(m.group(1) or 1), int(m.group(2) or 0)))
        if self.n_seq[0] < 1 or self.n_seq[1] < 0:
            raise SpectrumError("n_seq slope must be >= 1 and its offset >= 0")

    @functools.cached_property
    def section(self) -> SectionPart:
        """The J materialized primes' points a_j, b_j."""
        values = (v for j in self.primes() for v in (self.alpha(j), self.beta(j)))
        return SectionPoints(tuple(values))

    def primes(self) -> tuple[int, ...]:
        return primes_from_3(self.J)

    def n_of(self, j: int) -> int:
        a, b = self.n_seq
        return a * j + b

    def alpha(self, j: int) -> PiLinear:
        return PiLinear(0, Fraction(1, j) + 2 ** (self.n_of(j) + 1))

    def beta(self, j: int) -> PiLinear:
        return PiLinear(0, Fraction(1, j) + 3 * 2 ** self.n_of(j))


Primitive = Union[Point, VSegment, ILattice, VLine, Rect, PrimeFamily]


def primes_from_3(count: int) -> tuple[int, ...]:
    out = []
    candidate = 3
    while len(out) < count:
        if all(candidate % p for p in range(2, math.isqrt(candidate) + 1)):
            out.append(candidate)
        candidate += 2
    return tuple(out)


@record
class SpectrumSet:
    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))

    def is_empty(self) -> bool:
        return not self.primitives


def real_part_range(Z: SpectrumSet) -> tuple[Fraction, Fraction]:
    """Exact (inf, sup) of real parts over the whole set."""
    if Z.is_empty():
        raise SpectrumError("empty spectrum set")
    return min(p.re_lo for p in Z.primitives), max(p.re_hi for p in Z.primitives)


# ---------------------------------------------------------------------------
# vertical sections


@record
class SectionSet:
    parts: tuple[SectionPart, ...]

    def is_empty(self) -> bool:
        return not self.parts


def _normalize_parts(parts: Iterable[SectionPart]) -> tuple[SectionPart, ...]:
    points: list[PiLinear] = []
    rest: list[SectionPart] = []
    for p in parts:
        if isinstance(p, SectionPoints):
            points.extend(p.values)
        elif isinstance(p, SectionInterval) and p.lo == p.hi:
            points.append(p.lo)
        else:
            rest.append(p)
    out: list[SectionPart] = []
    if points:
        # values q0 + q1*pi are equal exactly when (q0, q1) are (pi is irrational)
        uniq = sorted(set(points), key=lambda v: (v.q0, v.q1))
        out.append(SectionPoints(tuple(uniq)))
    seen = set()
    for p in rest:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def section_set(parts: Iterable[SectionPart]) -> SectionSet:
    return SectionSet(_normalize_parts(parts))


def vertical_section(Z: SpectrumSet, t: Fraction) -> SectionSet:
    """Exact S_t = {u : t + iu in Z}: the section part of every primitive
    whose real range holds t."""
    t = Fraction(t)
    return section_set(p.section for p in Z.primitives if p.re_lo <= t <= p.re_hi)


# ---------------------------------------------------------------------------
# the antipode condition and its level descriptions
#
# The question at level n is whether S_t - S_t contains an odd multiple of
# 2^n * pi.  Each pair of section parts splits into instances of
# three kinds: membership of 2^n - c in the rational module
# 2^{n+1} Z + m_1 Z + ... (an exact gcd computation), an odd multiple of
# 2^n * pi inside an interval, or an interval meeting a lattice coset.
# Every instance has one exact description (PairLevels) that is constant
# from a known level on; the levels up to any bound and the tail beyond it
# are both read off these descriptions.


class ConsistencyError(AssertionError):
    """Two independent routes to the same set disagreed (internal bug)."""


@record
class PairLevels:
    """Levels of one instance: the condition holds exactly at `hits` below
    `start` and equals `value` at every n >= `start`."""

    hits: frozenset[int]
    start: int
    value: bool

    def holds(self, n: int) -> bool:
        return n in self.hits if n < self.start else self.value


_NEVER = PairLevels(frozenset(), 0, False)
_ALWAYS = PairLevels(frozenset(), 0, True)


def _stable_from(m: Fraction) -> int:
    """First level n >= 0 from which gcd(2^{n+1}, m) no longer changes."""
    return max(0, _v2(m.numerator) - _v2(m.denominator))


def _constant_from(start: int, cond: Callable[[int], bool]) -> PairLevels:
    """Describe `cond`, which is constant for n >= start by construction."""
    value = cond(start)
    if cond(start + 1) != value or cond(start + 6) != value:
        raise ConsistencyError(f"pair condition is not constant from level {start}")
    return PairLevels(frozenset(n for n in range(start) if cond(n)), start, value)


def _odd_cond(n: int, c: Fraction, mods: list[Fraction]) -> bool:
    """Exists odd k and integers t_i with 2^n * k = c + sum t_i * m_i."""
    g = _rat_gcd([Fraction(2 ** (n + 1))] + mods)
    return ((c - 2**n) / g).denominator == 1


def _module_levels(params: Optional[tuple[Fraction, list[Fraction]]]) -> PairLevels:
    """Levels of the _odd_cond instance `params`; None stands for no solution."""
    if params is None:
        return _NEVER
    c, mods = params
    m = _rat_gcd(mods)
    if m == 0:
        # 2^n * k = c with k odd holds only at n = v2(c)
        if c != 0 and c.denominator == 1:
            n = _v2(c.numerator)
            return PairLevels(frozenset({n}), n + 1, False)
        return _NEVER
    return _constant_from(_stable_from(m), lambda n: _odd_cond(n, c, mods))


def _abs_pl(x: PiLinear) -> PiLinear:
    return -x if x.sign() < 0 else x


def _odd_multiple_in_interval(n: int, a: PiLinear, b: PiLinear) -> bool:
    """Is some odd multiple of 2^n * pi inside the real interval [a, b]?"""
    s = PiLinear(0, 2**n)
    kmin = ceil_ratio(a, s)
    kmax = floor_ratio(b, s)
    if kmax < kmin:
        return False
    return kmax > kmin or kmin % 2 != 0


def _interval_levels(a: PiLinear, b: PiLinear) -> PairLevels:
    # once 2^n * pi exceeds |a| and |b|, the only multiple in [a, b] is 0
    bound = max(_abs_pl(a), _abs_pl(b))
    start = 0
    while not PiLinear(0, 2**start) > bound:
        start += 1
    return _constant_from(start, lambda n: _odd_multiple_in_interval(n, a, b))


def _point_lattice_params(
    w: PiLinear, step: PiLinear
) -> Optional[tuple[Fraction, list[Fraction]]]:
    """Reduce w + l*step = 2^n * k * pi (integer l, odd k) to an
    (offset, moduli) instance, or None."""
    if step.q0 != 0:
        l = -w.q0 / step.q0
        if l.denominator != 1:
            return None
        return w.q1 + l * step.q1, []
    if w.q0 != 0:
        return None
    return w.q1, [step.q1]


def _lattice_lattice_params(
    w: PiLinear, s1: PiLinear, s2: PiLinear
) -> Optional[tuple[Fraction, list[Fraction]]]:
    """Reduce the two-lattice pair to an (offset, moduli) instance, or None."""
    a0, a1 = s1.q0, s1.q1
    c0, c1 = s2.q0, s2.q1
    if a0 == 0 and c0 == 0:
        if w.q0 != 0:
            return None
        return w.q1, [a1, c1]
    # integer solutions of a0*k1 - c0*k2 = -w0
    den = math.lcm(a0.denominator, c0.denominator, w.q0.denominator)
    A = int(a0 * den)
    B = int(-c0 * den)
    C = int(-w.q0 * den)
    g = math.gcd(A, B)
    if C % g != 0:
        return None
    x0, y0 = _extended_gcd_solution(A, B, C)
    h = a1 * (B // g) + c1 * (A // g)
    return w.q1 + a1 * x0 - c1 * y0, [h]


def _extended_gcd_solution(A: int, B: int, C: int) -> tuple[int, int]:
    """One integer solution (x, y) of A*x + B*y = C (gcd(A,B) divides C)."""
    old_r, r = A, B
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    mult = C // old_r
    return old_s * mult, old_t * mult


def _interval_lattice_cond(
    n: int, lo: PiLinear, hi: PiLinear, base: PiLinear, step: PiLinear
) -> bool:
    # exists odd k, integer l: 2^n k pi + base + l step in [lo, hi]
    if step.q0 != 0:
        # 2^{n+1} pi Z + step Z is dense (irrational generator ratio), and a
        # dense coset meets every nondegenerate closed interval
        return True
    s1 = step.q1
    g = _rat_gcd([Fraction(2 ** (n + 1)), s1])
    # coefficients w = 2^n + g*j; need (w)*pi + base in [lo, hi]
    gp = PiLinear(0, g)
    off = PiLinear(0, 2**n) + base
    jmin = ceil_ratio(lo - off, gp)
    jmax = floor_ratio(hi - off, gp)
    return jmax >= jmin


def _interval_lattice_levels(
    lo: PiLinear, hi: PiLinear, base: PiLinear, step: PiLinear
) -> PairLevels:
    start = 0 if step.q0 != 0 else _stable_from(step.q1)
    return _constant_from(start, lambda n: _interval_lattice_cond(n, lo, hi, base, step))


def _pair_levels(A: SectionPart, B: SectionPart) -> Iterable[PairLevels]:
    """Descriptions whose union is the set of levels n at which
    {u - v : u in A, v in B} contains an odd multiple of 2^n * pi.

    The kind of A must not come after the kind of B in _KIND_ORDER: the
    set is the same for (B, A), since u - v is an odd multiple of 2^n * pi
    exactly when v - u is, so only one order of each pair has a branch."""
    if isinstance(B, SectionLine):
        return (_ALWAYS,)
    if isinstance(A, SectionPoints):
        if isinstance(B, SectionPoints):
            return _points_points_levels(A.values, B.values)
        if isinstance(B, SectionInterval):
            return (_interval_levels(u - B.hi, u - B.lo) for u in A.values)
        return (_module_levels(_point_lattice_params(u - B.base, B.step)) for u in A.values)
    if isinstance(A, SectionInterval):
        if isinstance(B, SectionInterval):
            return (_interval_levels(A.lo - B.hi, A.hi - B.lo),)
        return (_interval_lattice_levels(A.lo, A.hi, B.base, B.step),)
    return (_module_levels(_lattice_lattice_params(A.base - B.base, A.step, B.step)),)


def _points_points_levels(
    us: tuple[PiLinear, ...], vs: tuple[PiLinear, ...]
) -> tuple[PairLevels, ...]:
    """u - v can be an odd multiple of 2^n * pi only when it is an integer
    multiple of pi, that is when u and v share q0 and q1 mod 1; then n is
    v2 of the difference of the integer parts of q1.  So only points of one
    coset are paired."""
    cosets: dict[tuple[Fraction, Fraction], list[int]] = {}
    for v in vs:
        frac = v.q1 % 1
        cosets.setdefault((v.q0, frac), []).append(int(v.q1 - frac))
    hits = set()
    for u in us:
        frac = u.q1 % 1
        x = int(u.q1 - frac)
        hits.update(_v2(x - y) for y in cosets.get((u.q0, frac), ()) if x != y)
    return tuple(PairLevels(frozenset({n}), n + 1, False) for n in sorted(hits))


def _section_pair_levels(S: SectionSet) -> Iterator[PairLevels]:
    """The descriptions of every unordered pair of parts of S, each pair
    once and in kind order."""
    parts = sorted(S.parts, key=lambda p: _KIND_ORDER.index(type(p)))
    for i, A in enumerate(parts):
        for B in parts[i:]:
            yield from _pair_levels(A, B)


def section_antipode_condition(Z: SpectrumSet, t: Fraction, n: int) -> bool:
    """True iff S_t - S_t contains an odd multiple of 2^n * pi."""
    return any(d.holds(n) for d in _section_pair_levels(vertical_section(Z, Fraction(t))))


# ---------------------------------------------------------------------------
# per-section level sets (with tails) and the all-sections union


@record
class SectionLevels:
    """Levels n at which the antipode condition holds for one section."""

    t: Fraction
    n_max: int
    levels: frozenset[int]
    tail_extra: frozenset[int]  # exact hits beyond n_max (finitely many)
    tail_all_from: Optional[int]  # all n >= this are hits
    unbounded_schedule: Optional[PrimeFamily] = None  # its n_j: a sparse infinite tail

    @property
    def infinite(self) -> bool:
        return self.tail_all_from is not None or self.unbounded_schedule is not None


def section_antipode_levels(Z: SpectrumSet, t: Fraction, n_max: int) -> SectionLevels:
    """All levels n <= n_max satisfying the condition, plus the exact tail."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t = Fraction(t)
    hits: set[int] = set()
    true_from: Optional[int] = None
    for d in _section_pair_levels(vertical_section(Z, t)):
        hits |= d.hits
        if d.value and (true_from is None or d.start < true_from):
            true_from = d.start
    end = math.inf if true_from is None else true_from
    levels = {n for n in hits if n <= n_max}
    levels.update(range(min(end, n_max + 1), n_max + 1))
    # a_j - b_j = -2^(n_j) * pi for every prime j, so the condition holds at
    # n = n_j for all j, not only the materialized ones
    families = (p for p in Z.primitives if isinstance(p, PrimeFamily))
    schedule = next(families, None) if t == 0 else None
    return SectionLevels(
        t=t,
        n_max=n_max,
        levels=frozenset(levels),
        tail_extra=frozenset(n for n in hits if n_max < n < end),
        tail_all_from=true_from,
        unbounded_schedule=schedule,
    )


@record
class SectionFamilyReport:
    """Union of the per-section level sets over all distinct sections."""

    holds: bool  # True: the union is finite
    union_levels: frozenset[int]
    union_all_from: Optional[int]
    witness_t: Optional[Fraction]
    sections: tuple[SectionLevels, ...]
    representatives: tuple[Fraction, ...]


def section_representatives(Z: SpectrumSet) -> tuple[Fraction, ...]:
    """Finitely many t values meeting every distinct section of Z: the ends
    of the real ranges, and a midpoint of each gap between consecutive ends
    that a real range covers."""
    ends = sorted({x for p in Z.primitives for x in (p.re_lo, p.re_hi)})
    mids = [
        Fraction(c1 + c2, 2)
        for c1, c2 in zip(ends, ends[1:])
        if any(p.re_lo <= c1 and c2 <= p.re_hi for p in Z.primitives)
    ]
    return tuple(sorted(ends + mids))


def antipode_level_union(Z: SpectrumSet, n_max: int) -> SectionFamilyReport:
    """Union of section level sets; finite union is the finiteness hypothesis."""
    reps = section_representatives(Z)
    sections = tuple(section_antipode_levels(Z, t, n_max) for t in reps)
    union: set[int] = set()
    all_from: Optional[int] = None
    witness: Optional[Fraction] = None
    holds = True
    for s in sections:
        union |= s.levels | s.tail_extra
        if s.infinite:
            holds = False
            if witness is None:
                witness = s.t
            if s.tail_all_from is not None:
                all_from = (
                    s.tail_all_from
                    if all_from is None
                    else min(all_from, s.tail_all_from)
                )
    return SectionFamilyReport(
        holds=holds,
        union_levels=frozenset(union),
        union_all_from=all_from,
        witness_t=witness,
        sections=sections,
        representatives=reps,
    )


# ---------------------------------------------------------------------------
# closedness of the exponential images


@record
class ClosednessWitness:
    """A limit point of the exponential image that the image misses, and
    the primitive whose image accumulates there."""

    primitive: Union[ILattice, PrimeFamily]
    log_mod: Fraction
    angle: PiLinear


@record
class ClosednessReport:
    closed: bool
    witnesses: tuple[ClosednessWitness, ...]


def _dense_orbit_witness(p: ILattice, n: int) -> ClosednessWitness:
    # the orbit is dense in the circle but countable; probe rational angles
    # until one misses (any odd prime denominator coprime to the step and
    # base denominators fails the orbit equation, so this stops early)
    half = Fraction(1, 2**n)
    for den in range(1, 300):
        theta = Fraction(1, den)
        k = (theta / half - p.base.q0) / p.step.q0
        if k.denominator != 1 or ((p.base.q1 + k * p.step.q1) * half / 2).denominator != 1:
            return ClosednessWitness(p, p.re * half, PiLinear(theta, 0))
    raise AssertionError("candidate angles exhausted (impossible: one hit per angle)")


def image_closedness(Z: SpectrumSet, n: int) -> ClosednessReport:
    """Is exp(Z / 2^n) closed?

    Bounded primitives and vertical lines give closed images.  A vertical
    lattice gives a closed (finite) circle orbit exactly when its step is
    a rational multiple of pi; otherwise the orbit is dense and the image
    is not closed.  The prime family is treated as the infinite object:
    its image angles accumulate at 0 while no member has angle 0 (their
    pi-coefficients 1/j + ... are never even integers), so the point at
    angle 0 is a limit point outside the image at every level.
    """
    witnesses: list[ClosednessWitness] = []
    for p in Z.primitives:
        if isinstance(p, ILattice) and p.step.q0 != 0:
            witnesses.append(_dense_orbit_witness(p, n))
        elif isinstance(p, PrimeFamily):
            # image angles accumulate at the missing point with angle 0
            witnesses.append(ClosednessWitness(p, Fraction(0), PiLinear(0, 0)))
    return ClosednessReport(closed=not witnesses, witnesses=tuple(witnesses))
