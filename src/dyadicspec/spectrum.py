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
import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .exactnum import PI, ZERO, PiLinear, _raw, _rat_gcd, _v2, ceil_ratio, floor_ratio
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

    @functools.cached_property
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

    @functools.cached_property
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

    @functools.cached_property
    def section(self) -> SectionPart:
        return SectionLattice(self.base, self.step)


@record
class VLine(_OnOneLine):
    re: Fraction

    @functools.cached_property
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

    @functools.cached_property
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

    Its level angles and its section's pair levels are read in closed
    form, so neither builds the points of `section`, whose coefficients
    have about n_j bits:

    * at level n, with h = j*2^n, a_j/2^n is c*pi/h modulo 2*pi with
      c = 1 for n <= n_j and c = 1 + j*2^(n_j+1) beyond, and b_j/2^n with
      c = 1 for n < n_j, c = 1 + h at n = n_j and c = 1 + 3j*2^(n_j)
      beyond (`level_angles`).  Every c lies in [1, 2h), is odd and is 1
      mod j, so c*pi/h, less 2*pi when c > h, is a reduced angle;
    * a_j and b_j are the only pair of points that differ by a multiple of
      pi: the points of prime j have the coset (0, 1, j) of
      `_points_points_levels`.  So alone on its section the family has the
      pair levels {n_j} (`schedule`).
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
        # (1 + j*2^(n_j+1))*pi/j: the coefficient is 1 mod j, so the triple is reduced
        return _raw(0, 1 + (j << self.n_of(j) + 1), j)

    def beta(self, j: int) -> PiLinear:
        # (1 + 3j*2^(n_j))*pi/j, reduced likewise
        return _raw(0, 1 + (3 * j << self.n_of(j)), j)

    @functools.cached_property
    def schedule(self) -> tuple[int, ...]:
        """The levels n_j of the J materialized primes."""
        return tuple(map(self.n_of, self.primes()))

    def level_angles(self, n: int) -> Iterator[PiLinear]:
        """The distinct angles of a_j/2^n and b_j/2^n reduced to (-pi, pi],
        prime by prime (closed form in the class docstring)."""
        for j, m in zip(self.primes(), self.schedule):
            yield from _prime_level_angles(j, m, n)


def _prime_level_angles(j: int, m: int, n: int) -> tuple[PiLinear, ...]:
    """The reduced angles of a_j/2^n and of b_j/2^n, for n_j = m, or the
    one angle they share below n_j (see `PrimeFamily`)."""
    h = j << n
    ca = 1 if n <= m else 1 + (j << m + 1)
    a = _raw(0, ca - 2 * h if ca > h else ca, h)
    if n < m:
        return (a,)
    cb = 1 + h if n == m else 1 + (3 * j << m)
    return a, _raw(0, cb - 2 * h if cb > h else cb, h)


Primitive = Union[Point, VSegment, ILattice, VLine, Rect, PrimeFamily]


def has_bounded_section(p: Primitive) -> bool:
    """Whether p's section part is points or an interval.  A prime
    family's is its J points, known without building them."""
    return isinstance(p, PrimeFamily) or isinstance(p.section, BOUNDED_PARTS)


@functools.lru_cache(maxsize=32)
def primes_from_3(count: int) -> tuple[int, ...]:
    """The first `count` odd primes: a sieve of Eratosthenes over the odd
    numbers below a bound that doubles until it holds them.  Cached per
    count, as every level and section of a family reads them."""
    limit = 64
    while True:
        odd = bytearray([1]) * (limit // 2)  # odd[i] stands for 2i + 1
        odd[0] = 0
        for i in range(1, (math.isqrt(limit) + 1) // 2):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
        primes = [2 * i + 1 for i in itertools.compress(range(len(odd)), odd)]
        if len(primes) >= count:
            return tuple(primes[:count])
        limit *= 2


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
        # values q0 + q1*pi are equal exactly when (q0, q1) are (pi is
        # irrational); sorted by (q0, q1)
        out.append(SectionPoints(tuple(sorted(set(points), key=_coefficient_key))))
    out.extend(dict.fromkeys(rest))
    return tuple(out)


def _compare_coefficients(u: PiLinear, v: PiLinear) -> int:
    """Negative, zero or positive as (u.q0, u.q1) is below, at or above
    (v.q0, v.q1) in lexicographic order, cross-multiplied."""
    d, e = u.d, v.d
    return (u.a * e - v.a * d) or (u.b * e - v.b * d)


_coefficient_key = functools.cmp_to_key(_compare_coefficients)


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
# 2^n * pi, that is x * pi for a nonzero integer x with v2(x) = n.  Every
# pair of section parts asks which n are the valuations of the nonzero
# integers of one range [lo, hi] (_valuations):
#
# * point x interval, interval x interval: the differences fill [a, b],
#   whose multiples of pi are x * pi for x in [ceil(a/pi), floor(b/pi)].
#   Once 2^n * pi exceeds |a| and |b|, only x = 0 is left: never odd.
# * pairs with a lattice: for a modulus p/q > 0 in lowest terms and
#   s = v2(p), the sums 2^n*k + l*p/q (k odd, l in Z), times q, are
#   X_n = {2^n*k*q + l*p}.  Below s, q is odd and 2^{n+1} divides p, so X_n
#   is the integers of valuation n; from s on, it is the multiples of 2^s.
#   An offset c asks for c*q in X_n, so the range is [c*q, c*q] (empty
#   unless c*q is an integer); an interval minus a lattice base asks for
#   x * pi/q in it, so the range is its ends over pi/q.  With no modulus
#   only n = v2(c) holds; a step with an irrational part makes the coset
#   dense, so every n holds.
#
# Each instance has one exact description (PairLevels) that is constant
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


def _valuations(lo: int, hi: int, below: int) -> frozenset[int]:
    """The levels n < below at which some nonzero integer x in [lo, hi]
    has v2(x) = n.

    Any 2^{n+1} consecutive integers hold an odd multiple of 2^n, so every
    n with 2^{n+1} <= hi - lo + 1 is a level.  At the next n the range holds
    at most two multiples of 2^n, and two consecutive ones include an odd
    one; once at most one multiple x is left, it is the only candidate at
    every higher level, so the last level is v2(x) unless x is 0."""
    if lo > hi:
        return frozenset()
    n = (hi - lo + 1).bit_length() - 1
    levels = set(range(n))
    j, k = -(-lo >> n), hi >> n  # the multiples of 2^n in [lo, hi] are j..k times it
    if j < k:
        levels.add(n)
        n += 1
        j, k = -(-lo >> n), hi >> n
    if j == k and j:
        levels.add(n + _v2(j))
    return frozenset(m for m in levels if m < below)


def _interval_levels(a: PiLinear, b: PiLinear) -> PairLevels:
    lo, hi = ceil_ratio(a, PI), floor_ratio(b, PI)
    # 2^n * pi exceeds |a| and |b| from the bit length of floor(max(|a|, |b|)/pi),
    # which is max(hi, -lo) as a <= b
    start = max(hi, -lo).bit_length()
    return PairLevels(_valuations(lo, hi, start), start, False)


def _coset_levels(lo: int, hi: int, p: int) -> PairLevels:
    """Levels at which [lo, hi] meets X_n for a modulus p/q (see above)."""
    s = _v2(p)
    # from s on, [lo, hi] meets X_n when it holds a multiple of 2^s
    return PairLevels(_valuations(lo, hi, s), s, hi >> s >= -(-lo >> s))


def _module_levels(params: Optional[tuple[Fraction, list[Fraction]]]) -> PairLevels:
    """Levels of the instance `params`: an offset c and moduli m_i with
    2^n * k = c + sum t_i * m_i for odd k and integers t_i.  None stands
    for no solution."""
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
    x = c * m.denominator
    return _coset_levels(math.ceil(x), math.floor(x), m.numerator)


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
    # one solution (k1, k2) of A*k1 + B*k2 = C; the others move the offset
    # by multiples of the modulus h, which leaves its levels unchanged
    if B:
        v = abs(B) // g
        k1 = C // g * pow(A // g, -1, v) % v
        k2 = (C - A * k1) // B
    else:
        k1, k2 = C // A, 0
    h = a1 * (B // g) + c1 * (A // g)
    return w.q1 + a1 * k1 - c1 * k2, [h]


def _interval_lattice_levels(
    lo: PiLinear, hi: PiLinear, base: PiLinear, step: PiLinear
) -> PairLevels:
    # exists odd k, integer l: 2^n k pi + base + l step in [lo, hi]
    if step.q0 != 0:
        # 2^{n+1} pi Z + step Z is dense (irrational generator ratio), and a
        # dense coset meets every nondegenerate closed interval
        return _ALWAYS
    unit = _raw(0, 1, step.q1.denominator)  # pi / q
    return _coset_levels(
        ceil_ratio(lo - base, unit), floor_ratio(hi - base, unit), step.q1.numerator
    )


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
        # a point is the lattice of step 0 through it
        return (_module_levels(_lattice_lattice_params(u - B.base, ZERO, B.step)) for u in A.values)
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
    coset are paired.  Over the reduced triple (a + b*pi)/d the coset is
    (a, b mod d, d), as its values share d, and the integer part is b // d."""
    cosets: dict[tuple[int, int, int], list[int]] = {}
    for v in vs:
        cosets.setdefault((v.a, v.b % v.d, v.d), []).append(v.b // v.d)
    hits = set()
    for u in us:
        x = u.b // u.d
        hits.update(_v2(x - y) for y in cosets.get((u.a, u.b % u.d, u.d), ()) if x != y)
    return tuple(PairLevels(frozenset({n}), n + 1, False) for n in sorted(hits))


def _section_pair_levels(S: SectionSet) -> Iterator[PairLevels]:
    """The descriptions of every unordered pair of parts of S, each pair
    once and in kind order."""
    parts = sorted(S.parts, key=lambda p: _KIND_ORDER.index(type(p)))
    for i, A in enumerate(parts):
        for B in parts[i:]:
            yield from _pair_levels(A, B)


def _section_levels(Z: SpectrumSet, t: Fraction) -> Iterable[PairLevels]:
    """The descriptions of every pair of parts of S_t.  A prime family
    alone on the section pairs a_j with b_j only, at n_j (see
    `PrimeFamily`), so its points are not built."""
    on = [p for p in Z.primitives if p.re_lo <= t <= p.re_hi]
    if len(on) == 1 and isinstance(on[0], PrimeFamily):
        schedule = on[0].schedule
        return (PairLevels(frozenset(schedule), max(schedule) + 1, False),)
    return _section_pair_levels(vertical_section(Z, t))


def section_antipode_condition(Z: SpectrumSet, t: Fraction, n: int) -> bool:
    """True iff S_t - S_t contains an odd multiple of 2^n * pi."""
    return any(d.holds(n) for d in _section_levels(Z, Fraction(t)))


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
    for d in _section_levels(Z, t):
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
    sections = tuple(section_antipode_levels(Z, t, n_max) for t in section_representatives(Z))
    infinite = [s for s in sections if s.infinite]
    all_from = [s.tail_all_from for s in infinite if s.tail_all_from is not None]
    return SectionFamilyReport(
        holds=not infinite,
        union_levels=frozenset().union(*(s.levels | s.tail_extra for s in sections)),
        union_all_from=min(all_from, default=None),
        witness_t=infinite[0].t if infinite else None,
        sections=sections,
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
