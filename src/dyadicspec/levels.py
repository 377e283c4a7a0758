"""Level sets cl(exp(Z / 2^n)) and their exact circle geometry.

A level set is a finite union of components, and every component is one
record, `Component(lo_log, hi_log, angles)`, the product of two factors:

* radial: the log-modulus range [lo_log, hi_log] (one circle |z| = e^m
  when the two are equal).  Every log-modulus at level n is a real part
  of the spectrum divided by 2^n, so it is held as one reduced integer
  pair (numerator, denominator > 0): `Component.lo_m` and `hi_m` (the same
  pair object on one circle) and `LevelPoint.m`.  Scaling by 2^-n moves
  powers of two from the numerator to the denominator, comparisons
  cross-multiply, and `lo_log`, `hi_log` and `log_mod` are read-only
  Fraction views for the reprs, the report text and the tests;
* angles: one reduced angle (a PiLinear), an anchored interval
  ``Interval(lo, hi)``, a lattice orbit {base + 2*j*pi/count} held as its
  base and its integer member count (``Orbit(base, step)`` takes and
  shows step = 2/count), stored lazily so lattice spectra stay tractable
  at deep levels without enumerating 2^n points, or None for the full
  circle.

``make_component`` turns any product into its canonical component.  Every
operation acts factor by factor: an intersection meets the radial ranges
by max/min and the angle sets in one five-case table; the antipode and
powers are the affine angle maps a -> a + pi and a -> s*a; membership,
sup |1 - z|, circle sections and normalization read the two factors.

Squaring maps the compact X_{n+1} onto X_n, so level n is the projection
of the inverse limit.  Closure points demanded by the closedness analysis
(dense lattice orbits) appear as full circles.

A run builds each level once, as `level_view`: the primitives' scaled
factors, one component per section angle set, not normalized.
`LevelCache` answers the verdict path from that view:

* its sup encloses one candidate per circle, one with the circle's
  largest |angle|: on |z| = r, |1 - z|^2 = 1 + r^2 - 2r cos(angle) grows
  with |angle| in [0, pi], so no other candidate on the circle attains
  the sup, and the mirror image of that candidate has the same value.
  The candidates share one exp per circle and one cos per |angle|, and
  their enclosures are compared on integers;
* its membership looks a point up among the view's isolated points and
  scans only the rest;
* its antipodal set pairs the view's isolated points per circle and
  meets them with the normalized rest of the view.

`normalize` runs only where the canonical order is read: the `levels`
printout, the non-point part of a view fed to `antipodal_set` and that
set itself, and the seeds of the thread search and of the default model.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterable, Optional, Union

from .exactnum import PI, TWO_PI, PiLinear, Rat, _alloc, _mk, _raw, _v2, compare, floor_ratio, reduce_mod_2pi
from .exactnum import scale_pow2
from .realbounds import ComputationLimit  # re-exported: the size guards here raise it too
from .realbounds import _abs1m_sq_combine, _cos_ints, _exp_ints, even_key, sqrt_ints
from .records import Frozen, record
from .spectrum import (
    ConsistencyError,
    ILattice,
    SectionInterval,
    SectionLattice,
    SectionPart,
    SectionPoints,
    SectionSet,
    SpectrumSet,
    VLine,
    image_closedness,
    vertical_section,
)

ENUM_LIMIT = 4096  # explicit enumeration guard
SMALL_ORBIT = 16  # lattice orbits at most this size normalize into points


# ---------------------------------------------------------------------------
# log-moduli: reduced integer pairs

LogMod = tuple[int, int]  # (numerator, denominator > 0), in lowest terms


def _log_scaled(num: int, den: int, n: int) -> LogMod:
    """The reduced pair of num/den * 2^-n, for num/den in lowest terms."""
    if not num:
        return 0, 1
    t = min(n, _v2(num))
    return num >> t, den << n - t


def _log_times(m: LogMod, s: int) -> LogMod:
    """m * s for an integer s >= 1."""
    g = math.gcd(s, m[1])
    return m[0] * (s // g), m[1] // g


def _log_cmp(x: LogMod, y: LogMod) -> int:
    """Negative, zero or positive as x <, = or > y."""
    return x[0] * y[1] - y[0] * x[1]


_log_key = functools.cmp_to_key(_log_cmp)


def _log_within(lo: LogMod, hi: LogMod, m: LogMod) -> bool:
    """lo <= m <= hi; one comparison on a circle, whose lo is its hi."""
    if lo is hi:
        return lo == m
    return lo[0] * m[1] <= m[0] * lo[1] and m[0] * hi[1] <= hi[0] * m[1]


_HASH_MODULUS = sys.hash_info.modulus


def _rat_hash(m: LogMod) -> int:
    """hash(Fraction(*m)), computed as `fractions.Fraction` does, so the
    records hash as the frozen dataclasses of their Fraction fields."""
    n, d = m
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


# ---------------------------------------------------------------------------
# angle sets and components
#
# These records are nearly all the records a run builds and hashes, so
# they are written out: slotted, set through their slot descriptors, and
# compared and hashed with direct attribute loads.  Their repr, equality
# and hash are those of frozen dataclasses of the fields in `_fields`
# (records.py), where a log-modulus or an orbit step is a Fraction.


class Interval(Frozen):
    """The angles [lo, hi].  Read off a component it is anchored: lo in
    (-pi, pi] and hi - lo < 2*pi; make_component anchors any interval."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: PiLinear, hi: PiLinear):
        _set_iv_lo(self, lo)
        _set_iv_hi(self, hi)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))


class Orbit(Frozen):
    """The angle orbit {base + 2*j*pi/count mod 2*pi : j integer}, held as
    its base and its integer member count; `step` = 2/count is a Fraction
    view, and Orbit(base, step) takes a step with 2/step an integer.

    Read off a component, count is at least 2 and base.q1 lies in
    [0, step).  All members share the irrational angle offset base.q0.
    """

    __slots__ = ("base", "count")
    _fields = ("base", "step")

    def __init__(self, base: PiLinear, step: Rat):
        sn, sd = step.numerator, step.denominator
        if sn <= 0 or 2 * sd % sn:
            raise ValueError("lattice step must be positive and divide 2")
        _set_base(self, base)
        _set_count(self, 2 * sd // sn)

    @property
    def step(self) -> Fraction:
        return Fraction(2, self.count)

    def angle(self, j: int) -> PiLinear:
        """The member base + j*step*pi, not reduced."""
        return _orbit_member(self.base, self.count, j)

    def __eq__(self, other):
        if other.__class__ is not Orbit:
            return NotImplemented
        return self.count == other.count and self.base == other.base

    def __hash__(self) -> int:
        count = self.count  # the reduced pair of the step 2/count
        return hash((self.base, _rat_hash((1, count >> 1) if count & 1 == 0 else (2, count))))


def _orbit_member(base: PiLinear, count: int, j: int) -> PiLinear:
    """base + 2*j*pi/count, not reduced."""
    return _mk(base.a * count, base.b * count + 2 * j * base.d, base.d * count)


def _orbit(base: PiLinear, count: int) -> Orbit:
    """The Orbit of a base and a member count >= 1."""
    x = _alloc(Orbit)
    _set_base(x, base)
    _set_count(x, count)
    return x


Angles = Union[PiLinear, Interval, Orbit, None]  # None is the full circle

# the order in which component_intersection meets two angle sets
_ANGLE_RANK = {PiLinear: 0, type(None): 1, Interval: 2, Orbit: 3}


class LevelPoint(Frozen):
    """The point e**log_mod * exp(i*angle), angle reduced to (-pi, pi]; the
    log-modulus is held as the reduced pair `m`, log_mod is its view."""

    __slots__ = ("m", "angle")
    _fields = ("log_mod", "angle")

    def __init__(self, log_mod: Rat, angle: PiLinear):
        _set_m(self, (log_mod.numerator, log_mod.denominator))
        _set_angle(self, angle)

    @property
    def log_mod(self) -> Fraction:
        return Fraction(*self.m)

    def __eq__(self, other):
        if other.__class__ is not LevelPoint:
            return NotImplemented
        return self.m == other.m and self.angle == other.angle

    def __hash__(self) -> int:
        return hash((_rat_hash(self.m), self.angle))


def _point(m: LogMod, angle: PiLinear) -> LevelPoint:
    """The LevelPoint of a reduced pair and a reduced angle."""
    p = _alloc(LevelPoint)
    _set_m(p, m)
    _set_angle(p, angle)
    return p


class Component(Frozen):
    """Log-modulus in [lo_log, hi_log] times the angle set `angles`.

    The ends are held as reduced pairs `lo_m` and `hi_m`, one and the same
    object on one circle (the constructor and `_comp`'s callers see to
    it); lo_log and hi_log are their views.  Built by make_component, it is
    canonical: on one circle the angles are a reduced point, an anchored
    interval, an orbit of at least two members or None; a radial range
    takes an anchored interval or None.
    """

    __slots__ = ("lo_m", "hi_m", "angles")
    _fields = ("lo_log", "hi_log", "angles")

    def __init__(self, lo_log: Rat, hi_log: Rat, angles: Angles):
        lo, hi = (lo_log.numerator, lo_log.denominator), (hi_log.numerator, hi_log.denominator)
        _set_lo_m(self, lo)
        _set_hi_m(self, lo if hi == lo else hi)
        _set_angles(self, angles)

    @property
    def lo_log(self) -> Fraction:
        return Fraction(*self.lo_m)

    @property
    def hi_log(self) -> Fraction:
        return Fraction(*self.hi_m)

    def __eq__(self, other):
        if other.__class__ is not Component:
            return NotImplemented
        return self.lo_m == other.lo_m and self.hi_m == other.hi_m and self.angles == other.angles

    def __hash__(self) -> int:
        return hash((_rat_hash(self.lo_m), _rat_hash(self.hi_m), self.angles))

    def points(self, limit: Optional[int] = None) -> list[LevelPoint]:
        """An orbit component's members for j = 0, 1, ..., or only its first
        `limit`, each angle reduced to (-pi, pi]."""
        orbit, m = self.angles, self.lo_m
        if orbit.count > ENUM_LIMIT:
            raise ComputationLimit(
                f"lattice orbit of {orbit.count} points exceeds the enumeration "
                f"limit {ENUM_LIMIT}"
            )
        take = orbit.count if limit is None else min(orbit.count, limit)
        return [_point(m, reduce_mod_2pi(orbit.angle(j))) for j in range(take)]


def _comp(lo_m: LogMod, hi_m: LogMod, angles: Angles) -> Component:
    """The Component of two pairs, passed as one object on one circle."""
    c = _alloc(Component)
    _set_lo_m(c, lo_m)
    _set_hi_m(c, hi_m)
    _set_angles(c, angles)
    return c


_set_iv_lo, _set_iv_hi = Interval.lo.__set__, Interval.hi.__set__
_set_base, _set_count = Orbit.base.__set__, Orbit.count.__set__
_set_m, _set_angle = LevelPoint.m.__set__, LevelPoint.angle.__set__
_set_lo_m, _set_hi_m = Component.lo_m.__set__, Component.hi_m.__set__
_set_angles = Component.angles.__set__

# the benchmark tracer counts lattice points enumerated under this name
CircleLattice = Component


class LevelSet(Frozen):
    __slots__ = _fields = ("level", "components")

    def __init__(self, level: int, components: tuple[Component, ...]):
        _set_level(self, level)
        _set_components(self, components)

    def __eq__(self, other):
        if other.__class__ is not LevelSet:
            return NotImplemented
        return self.level == other.level and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.level, self.components))

    def is_empty(self) -> bool:
        return not self.components


_set_level, _set_components = LevelSet.level.__set__, LevelSet.components.__set__


# ---------------------------------------------------------------------------
# construction helpers


_pl_key = functools.cmp_to_key(compare)


def make_component(lo_m: LogMod, hi_m: LogMod, angles: Angles) -> Component:
    """The canonical component for log-modulus in [lo_m, hi_m] times angles.

    The angles need not be reduced: a point angle is reduced to (-pi, pi],
    an interval anchored (the full circle once it spans 2*pi) and an
    orbit's base brought into [0, step).  On one radius an interval of
    one angle is that point and a one-member orbit its member; a radial
    range takes an interval or the full circle.
    """
    if lo_m is not hi_m and lo_m == hi_m:
        hi_m = lo_m
    if isinstance(angles, Interval):
        lo, hi = angles.lo, angles.hi
        span = hi - lo
        if span.sign() < 0:
            raise ValueError("angle interval with lo > hi")
        if compare(span, TWO_PI) < 0:
            # shift by a multiple of 2*pi so lo lands in (-pi, pi]
            lo = reduce_mod_2pi(lo)
            if lo is not angles.lo:
                hi = hi + (lo - angles.lo)
            if lo_m is hi_m and lo == hi:
                return _comp(lo_m, lo_m, lo)
            return _comp(lo_m, hi_m, angles if lo is angles.lo else Interval(lo, hi))
        angles = None
    if angles is None:
        return _comp(lo_m, hi_m, None)
    if lo_m is not hi_m:
        raise ValueError("a radial range takes an angle interval or the full circle")
    if isinstance(angles, Orbit):
        return make_lattice(lo_m, angles.base, angles.count)
    return _comp(lo_m, lo_m, reduce_mod_2pi(angles))


def make_lattice(m: LogMod, base: PiLinear, count: int) -> Component:
    """The orbit of `count` members through `base` on the circle m, its
    base brought into [0, step): the member with j = -floor(q1 / step) =
    -floor(b * count / 2d).  A one-member orbit is that member's point."""
    if count < 1:
        raise ValueError("an orbit has at least one member")
    j = base.b * count // (2 * base.d)
    if j:
        base = _orbit_member(base, count, -j)
    if count == 1:
        return _comp(m, m, reduce_mod_2pi(base))
    return _comp(m, m, _orbit(base, count))


# ---------------------------------------------------------------------------
# normalization


def normalize(level: int, components: Iterable[Component]) -> LevelSet:
    """Canonical form: circles absorb, arcs merge (with wraparound), points
    dedupe and drop into covering arcs/lattices, small lattices enumerate,
    sectors and annuli dedupe into one exact order."""
    # one bucket per circle, one list per angle kind (indexed by _ANGLE_RANK)
    by_log: dict[LogMod, tuple[list, list, list, list]] = {}
    others: list[Component] = []
    for c in components:
        m, a = c.lo_m, c.angles
        if m is not c.hi_m:
            others.append(c)
            continue
        kinds = by_log.setdefault(m, ([], [], [], []))
        if a.__class__ is Orbit and a.count <= SMALL_ORBIT:  # enters as its points
            kinds[0].extend(_comp(m, m, p.angle) for p in c.points())
        else:
            kinds[_ANGLE_RANK[a.__class__]].append(c)

    out: list[Component] = []
    for m in sorted(by_log, key=_log_key):
        points, circles, arcs, lattices = by_log[m]
        arcs = None if circles else _merge_arcs(m, arcs)
        if arcs is None:
            out.append(_comp(m, m, None))
            continue
        if len(lattices) > 1:  # by step, then base
            lattices = sorted(set(lattices), key=lambda c: (-c.angles.count, c.angles.base.q0, c.angles.base.q1))
        cover = arcs + lattices
        # the circle's points, one per angle
        pts = [
            c
            for a, c in {c.angles: c for c in points}.items()
            if not any(_angles_contain(x.angles, a) for x in cover)
        ]
        pts.sort(key=lambda c: _pl_key(c.angles))
        out.extend(pts)
        out.extend(arcs)
        out.extend(lattices)

    out.extend(sorted(set(others), key=_region_key))
    return LevelSet(level, tuple(out))


def _region_key(c: Component) -> tuple:
    """Exact order of sectors and annuli: radial range, then annuli before
    sectors, then the sector's angle ends."""
    radial = _log_key(c.lo_m), _log_key(c.hi_m)
    if c.angles is None:
        return (*radial, 0)
    return (*radial, 1, _pl_key(c.angles.lo), _pl_key(c.angles.hi))


def _merge_arcs(m: LogMod, arcs: list[Component]) -> Optional[list[Component]]:
    """Union of anchored arcs on one circle, or None when it is the circle.

    The union of arcs with lo < hi has no isolated points.
    """
    if not arcs:
        return []
    ivs = sorted(((a.angles.lo, a.angles.hi) for a in arcs), key=lambda iv: _pl_key(iv[0]))
    merged: list[tuple[PiLinear, PiLinear]] = []
    for lo, hi in ivs:
        if merged and compare(lo, merged[-1][1]) <= 0:
            if compare(hi, merged[-1][1]) > 0:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    if len(merged) >= 2:
        first, last = merged[0], merged[-1]
        if compare(first[0] + TWO_PI, last[1]) <= 0:
            # wraparound overlap: extend the last interval over the first
            hi = first[1] + TWO_PI
            if compare(hi, last[1]) > 0:
                merged[-1] = (last[0], hi)
            merged.pop(0)
    out = [make_component(m, m, Interval(lo, hi)) for lo, hi in merged]
    return None if any(c.angles is None for c in out) else out


# ---------------------------------------------------------------------------
# the level sets themselves


def _level_angles(part: SectionPart, n: int) -> list[Angles]:
    """The angle sets of a section part's exponential image at level n:
    the part scaled by 2^-n, not reduced.  An irrational lattice step
    makes the orbit dense: its closure is the full circle."""
    if isinstance(part, SectionPoints):
        return [scale_pow2(a, -n) for a in part.values]
    if isinstance(part, SectionInterval):
        return [Interval(scale_pow2(part.lo, -n), scale_pow2(part.hi, -n))]
    if isinstance(part, SectionLattice):
        step = part.step
        return [None if step.a else _orbit(scale_pow2(part.base, -n), _lattice_count(step, n))]
    return [None]


def _lattice_count(step: PiLinear, n: int) -> int:
    """The member count at level n of a lattice orbit of rational step
    s*pi, s = u/v > 0 in lowest terms: its angles scale to the orbit of
    step gcd(s / 2^n, 2) = 2^min(v2(u), n+1) / (v * 2^n), which has
    v * 2^(n+1) / 2^min(v2(u), n+1) members."""
    u, v = step.b, step.d
    return v << n + 1 - min(_v2(u), n + 1)


def level_view(Z: SpectrumSet, n: int) -> list[Component]:
    """cl(exp(Z / 2^n)) before normalization: each primitive's real range
    scaled by 2^-n, times each angle set of its section part scaled by
    2^-n, one component per angle set.  A points part on one radius gives
    isolated points directly."""
    if n < 0:
        raise ValueError("level must be >= 0")
    comps: list[Component] = []
    for p in Z.primitives:
        re_lo, re_hi = p.re_lo, p.re_hi
        lo = _log_scaled(re_lo.numerator, re_lo.denominator, n)
        # a primitive on one vertical line holds its one real value twice
        hi = lo if re_hi is re_lo else _log_scaled(re_hi.numerator, re_hi.denominator, n)
        S = p.section
        if isinstance(S, SectionPoints) and lo == hi:
            comps.extend(_comp(lo, lo, _scaled_point(a, n)) for a in S.values)
        else:
            comps.extend(make_component(lo, hi, a) for a in _level_angles(S, n))
    return comps


def _scaled_point(a: PiLinear, n: int) -> PiLinear:
    """reduce_mod_2pi(scale_pow2(a, -n)).  A multiple of pi is first taken
    modulo 2**(n+1) * pi, which the scaling maps to 2*pi, so the scaling
    and the reduction act on small integers (a prime family's angles have
    thousands of bits); b mod 2**(n+1) * d keeps gcd(b, d) = 1."""
    if a.a == 0:
        a = _raw(0, a.b % (a.d << n + 1), a.d)
    return reduce_mod_2pi(scale_pow2(a, -n))


def level_set(Z: SpectrumSet, n: int) -> LevelSet:
    """Exact description of cl(exp(Z / 2^n)), normalized."""
    return normalize(n, level_view(Z, n))


def _angles_contain(angles: Angles, angle: PiLinear) -> bool:
    """Whether the reduced angle lies in the angle set."""
    if angles is None:
        return True
    if isinstance(angles, PiLinear):
        # values q0 + q1*pi are equal exactly when (q0, q1) are: pi is irrational
        return angles == angle
    if isinstance(angles, Interval):
        # the interval is anchored with lo in (-pi, pi]
        return angles.lo <= angle <= angles.hi or angles.lo <= angle + TWO_PI <= angles.hi
    return _orbit_contains(angles.base, angles.count, angle)


def _orbit_contains(base: PiLinear, count: int, angle: PiLinear) -> bool:
    """Whether the reduced angle lies in {base + 2*j*pi/count mod 2*pi}:
    the same q0, and q1 - base.q1 = (angle.b*e - base.b*d) / (d*e) a
    multiple of 2/count."""
    d, e = angle.d, base.d
    return angle.a * e == base.a * d and (angle.b * e - base.b * d) * count % (2 * d * e) == 0


def on_line_level(prim: Union[VLine, ILattice], n: int, p: LevelPoint) -> bool:
    """Whether p lies in level n of `prim` alone: on its circle, of
    log-modulus re / 2^n, and for a lattice of rational step in the orbit
    that `level_view` scales its angles to.  A line's level, and the
    closure of a dense orbit, is the whole circle.  It builds no record,
    as `threads.tail_closes` asks it along the search."""
    re, (num, den) = prim.re, p.m
    if num * re.denominator << n != re.numerator * den:  # log_mod * 2^n != re
        return False
    if isinstance(prim, VLine) or prim.step.a:
        return True
    return _orbit_contains(scale_pow2(prim.base, -n), _lattice_count(prim.step, n), p.angle)


def membership(L: LevelSet, p: LevelPoint) -> bool:
    """Exact containment of a point in a level set."""
    m = p.m
    for c in L.components:
        if _log_within(c.lo_m, c.hi_m, m) and _angles_contain(c.angles, p.angle):
            return True
    return False


# ---------------------------------------------------------------------------
# antipodes and powers: the affine angle maps a -> a + pi and a -> s*a


def _map_angles(angles: Angles, k: Rat, shift: Optional[PiLinear] = None) -> Angles:
    """The angle set under a -> k*a + shift for rational k > 0, not reduced.

    An orbit of count N, step 2/N, maps to the orbit of step gcd(k*2/N, 2)
    = 2/N', with N' the reduced denominator of k/N: for k = p/q that is
    q*N / gcd(p, q*N).
    """
    if angles is None:
        return None
    if isinstance(angles, PiLinear):
        a = angles if k == 1 else angles.scaled(k)
        return a if shift is None else a + shift
    if isinstance(angles, Interval):
        return Interval(_map_angles(angles.lo, k, shift), _map_angles(angles.hi, k, shift))
    count = k.denominator * angles.count
    return _orbit(_map_angles(angles.base, k, shift), count // math.gcd(k.numerator, count))


def antipode_component(c: Component) -> Component:
    return make_component(c.lo_m, c.hi_m, _map_angles(c.angles, 1, PI))


def power_component(c: Component, s: int) -> Component:
    """Image of a component under z -> z**s for s >= 1."""
    if s < 1:
        raise ValueError("power must be >= 1")
    lo = _log_times(c.lo_m, s)
    return make_component(lo, lo if c.lo_m is c.hi_m else _log_times(c.hi_m, s), _map_angles(c.angles, s))


def power_levelset(L: LevelSet, s: int) -> LevelSet:
    return normalize(L.level, [power_component(c, s) for c in L.components])


# ---------------------------------------------------------------------------
# antipodes and intersections


def _split_points(components: Iterable[Component]) -> tuple[list[Component], list[Component]]:
    """The isolated points among the components, and the other components."""
    points: list[Component] = []
    spread: list[Component] = []
    for c in components:
        (points if c.angles.__class__ is PiLinear else spread).append(c)
    return points, spread


def antipodal_set(L: LevelSet) -> LevelSet:
    """The set of points of L whose antipodes also lie in L.

    Isolated points pair up per circle.  A point's antipode is its angle
    plus pi, reduced, on its circle: when that angle lies in the angle set
    of an arc, circle, lattice, sector or annulus whose radial range holds
    the circle, the point and its antipode are kept; else the point is
    kept when the angle is among its circle's points (reduced angles are
    equal exactly when their coefficients are).  So each of those spread
    components has its radial range tested once per circle, and only
    pairs of them are intersected.
    """
    points, spread = _split_points(L.components)
    circles: dict[LogMod, set[PiLinear]] = {}
    for c in points:
        circles.setdefault(c.lo_m, set()).add(c.angles)
    out: list[Component] = []
    for m, angles in circles.items():
        around = [c.angles for c in spread if _log_within(c.lo_m, c.hi_m, m)]
        for a in angles:
            b = reduce_mod_2pi(a + PI)
            if around and any(_angles_contain(x, b) for x in around):
                out += (_comp(m, m, a), _comp(m, m, b))
            elif b in angles:
                out.append(_comp(m, m, a))
    if spread:
        mirrored = [antipode_component(c) for c in spread]
        for a in spread:
            for b in mirrored:
                out.extend(component_intersection(a, b))
    return normalize(L.level, out)


def _interval_intersections(x: Interval, y: Interval) -> list[Interval]:
    """Intersections of two anchored angle intervals, modulo 2*pi."""
    out = []
    for shift in (-2, 0, 2):
        a = y.lo + PiLinear(0, shift)
        b = y.hi + PiLinear(0, shift)
        lo = a if compare(a, x.lo) > 0 else x.lo
        hi = b if compare(b, x.hi) < 0 else x.hi
        if compare(lo, hi) <= 0:
            out.append(Interval(lo, hi))
    return out


def _orbit_angles_in_interval(orbit: Orbit, lo: PiLinear, hi: PiLinear) -> list[PiLinear]:
    """The orbit members with angles in [lo, hi], not reduced."""
    # members have real angles base.q0 + (base.q1 + j*step)*pi (all integers j)
    step_pl = _mk(0, 2, orbit.count)
    jmin = -floor_ratio(orbit.base - lo, step_pl)
    jmax = floor_ratio(hi - orbit.base, step_pl)
    if jmax - jmin + 1 > ENUM_LIMIT:
        raise ComputationLimit(
            f"lattice-interval intersection of {jmax - jmin + 1} points exceeds "
            f"the enumeration limit {ENUM_LIMIT}"
        )
    return [orbit.angle(j) for j in range(jmin, jmax + 1)]


def _orbit_intersection(a: Orbit, b: Orbit) -> list[Orbit]:
    # the steps 2/M and 2/N have the gcd g = 2/L, L = lcm(M, N); a.base +
    # k*a.step meets b's orbit where k*u = t mod v, with u = L/M and v = L/N
    # coprime and t = (b.base.q1 - a.base.q1)/g an integer; the meet has
    # step a.step * v = 2/gcd(M, N)
    x, y, M, N = a.base, b.base, a.count, b.count
    d, e = x.d, y.d
    if x.a * e != y.a * d:
        return []
    L = math.lcm(M, N)
    t, r = divmod((y.b * d - x.b * e) * L, 2 * d * e)
    if r:
        return []
    v = L // N
    k = t * pow(L // M, -1, v) % v
    return [_orbit(a.angle(k), math.gcd(M, N))]


def component_intersection(a: Component, b: Component) -> list[Component]:
    """Exact intersection of two components (possibly empty).

    The radial ranges meet by max/min; the angle sets, ordered point <
    full circle < interval < orbit, meet in one table of five cases.
    """
    if a.lo_m is a.hi_m and b.lo_m is b.hi_m:  # two circles meet only as one
        if a.lo_m != b.lo_m:
            return []
        lo = hi = a.lo_m
    else:
        lo = a.lo_m if _log_cmp(a.lo_m, b.lo_m) >= 0 else b.lo_m
        hi = a.hi_m if _log_cmp(a.hi_m, b.hi_m) <= 0 else b.hi_m
        if _log_cmp(lo, hi) > 0:
            return []
    x, y = a.angles, b.angles
    if _ANGLE_RANK[type(x)] > _ANGLE_RANK[type(y)]:
        a, b, x, y = b, a, y, x
    if isinstance(x, PiLinear):  # point x any
        return [a] if _angles_contain(y, x) else []
    if x is None:  # full circle x any
        meet = [y]
    elif isinstance(y, Interval):  # interval x interval
        meet = _interval_intersections(x, y)
    elif isinstance(x, Interval):  # interval x orbit
        meet = _orbit_angles_in_interval(y, x.lo, x.hi)
    else:  # orbit x orbit
        meet = _orbit_intersection(x, y)
    return [make_component(lo, hi, z) for z in meet]


# ---------------------------------------------------------------------------
# circle sections


def circle_section(
    Z: SpectrumSet, n: int, t: Fraction, check_consistency: bool = True
) -> LevelSet:
    """The level set restricted to the circle |z| = e^(t / 2^n).

    When the exponential image is closed the result must coincide with the
    image of the vertical section; a mismatch raises ConsistencyError.
    """
    t = Fraction(t)
    r = _log_scaled(t.numerator, t.denominator, n)
    L = level_set(Z, n)
    out: list[Component] = []
    for c in L.components:
        if _log_within(c.lo_m, c.hi_m, r):
            out.append(c if c.lo_m is c.hi_m else make_component(r, r, c.angles))
    section = normalize(n, out)
    if check_consistency and image_closedness(Z, n).closed:
        expected = _section_image(vertical_section(Z, t), n, r)
        if section != expected:
            raise ConsistencyError(
                f"circle section at t={t}, n={n} disagrees with the section image"
            )
    return section


def _section_image(S: SectionSet, n: int, m: LogMod) -> LevelSet:
    return normalize(n, [make_component(m, m, a) for part in S.parts for a in _level_angles(part, n)])


def eventual_image(Z: SpectrumSet, n: int, K: int) -> LevelSet:
    """Level n, which is the image of level n+K under K squarings.  Kept
    only for the benchmark tracer, which looks the name up; call level_set."""
    return level_set(Z, n)


# ---------------------------------------------------------------------------
# sup of |1 - z| over a level set


@record
class SupResult:
    """Certified enclosure of sup |1 - z|^2, exact when the attaining value is rational."""

    sq_lo: Fraction
    sq_hi: Fraction
    exact_sq: Optional[Fraction]


def _angle_sup_candidates(angles: Angles) -> list[PiLinear]:
    """Reduced angles of the set where |1 - z| at a fixed radius is largest."""
    if angles is None:
        return [PI]
    if angles.__class__ is PiLinear:  # reduced on a component
        return [angles]
    if isinstance(angles, Interval):
        cands = [reduce_mod_2pi(angles.lo), reduce_mod_2pi(angles.hi)]
        # anchored, lo <= pi < lo + 2*pi, and the span is under 2*pi (else
        # the set is the full circle), so pi is covered exactly when hi >= pi
        if compare(angles.hi, PI) >= 0:
            cands.append(PI)
        return cands
    # the members around pi: j around (pi - base)/step*pi
    j0 = floor_ratio(PI - angles.base, _mk(0, 2, angles.count))
    return [reduce_mod_2pi(angles.angle(j)) for j in (j0 - 1, j0, j0 + 1)]


def component_sup_candidates(c: Component) -> list[LevelPoint]:
    """Finitely many points where sup |1 - z| over the component is attained.

    On a circle |1 - z| grows with angular distance from 0 and, at fixed
    angle, is monotone towards the radial extremes, so the sup sits at an
    angle endpoint, the antipodal angle when covered, or a radial corner.
    """
    radii, angles = _sup_factors(c)
    return [_point(m, a) for m in radii for a in angles]


def _sup_factors(c: Component) -> tuple[tuple[LogMod, ...], list[PiLinear]]:
    """The radii and the angles whose pairs are the component's sup candidates."""
    lo, hi = c.lo_m, c.hi_m
    return (lo,) if lo is hi else (lo, hi), _angle_sup_candidates(c.angles)


def sup_abs_one_minus(L: LevelSet, digits: int = 30) -> SupResult:
    """sup over the level set of |1 - z|^2, as a certified enclosure of
    the widest sup candidate on each circle."""
    return _sup_result(*_sup_ints(_widest_per_circle(L.components), digits))


def _sup_result(lo: tuple[int, int], hi: tuple[int, int]) -> SupResult:
    """The SupResult of `_sup_ints`' bounds: Fractions for the winners only.

    The sup is exact when its largest lower bound equals its largest upper
    bound: the point with that lower bound then has an exact enclosure
    (the unit circle at a rational-cosine angle) and attains the sup.
    """
    if lo[0] * hi[1] == hi[0] * lo[1]:
        v = Fraction(*hi)
        return SupResult(v, v, v)
    return SupResult(Fraction(*lo), Fraction(*hi), None)


# The largest lower and upper bound of |1 - z|^2 as (numerator, denominator) each
SupInts = tuple[tuple[int, int], tuple[int, int]]


def _sup_ints(points: list[LevelPoint], digits: int) -> SupInts:
    """The largest lower and the largest upper bound of |1 - z|^2 over the
    points, each as (numerator, denominator) (0 over no points).

    One exp per radius and one cos per |angle| (cos is even, so a +-angle
    pair shares one) feed each point's combine, and the bounds are compared
    by cross-multiplication, so no Fraction is built.
    """
    if not points:
        return (0, 1), (0, 1)
    exps: dict[LogMod, tuple[int, int, int]] = {}
    coss: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    lo_n, lo_d, hi_n, hi_d = -1, 1, -1, 1
    for p in points:
        m, a = p.m, p.angle
        ak = even_key(a)
        c = coss.get(ak)
        if c is None:
            c = coss[ak] = _cos_ints(a, digits + 2)
        e = exps.get(m)
        if e is None:
            e = exps[m] = _exp_ints(m, digits + 2)
        lo, hi, den = _abs1m_sq_combine(e, c)
        if hi * hi_d > hi_n * den:
            hi_n, hi_d = hi, den
        if lo * lo_d > lo_n * den:
            lo_n, lo_d = lo, den
    return (lo_n, lo_d), (hi_n, hi_d)


def _widest_per_circle(components: Iterable[Component]) -> list[LevelPoint]:
    """Per circle, one sup candidate of the components with that circle's
    largest |angle|: the only candidates that can attain the sup (see the
    module docstring), and a +-angle tie has one value."""
    widest: dict[LogMod, PiLinear] = {}
    for c in components:
        radii, angles = _sup_factors(c)
        for m in radii:
            for a in angles:
                q = widest.get(m)
                if q is None or _compare_abs(a, q) > 0:
                    widest[m] = a
    return [_point(m, a) for m, a in widest.items()]


def _compare_abs(x: PiLinear, y: PiLinear) -> int:
    """compare(|x|, |y|)."""
    return compare(-x if x.sign() < 0 else x, -y if y.sign() < 0 else y)


def enumerate_points(
    L: LevelSet, limit: Optional[int] = None
) -> Optional[list[LevelPoint]]:
    """All points when the set is purely point-like and small, else None.

    With a limit only the first `limit` points are built; whether the
    answer is None is read off the lattice counts before any is built.
    """
    if not all(
        c.angles.__class__ is PiLinear or (c.angles.__class__ is Orbit and c.angles.count <= ENUM_LIMIT)
        for c in L.components
    ):
        return None
    pts: list[LevelPoint] = []
    for c in L.components:
        left = None if limit is None else limit - len(pts)
        if left == 0:
            break
        a = c.angles
        pts.extend([_point(c.lo_m, a)] if a.__class__ is PiLinear else c.points(left))
    return pts


def _angle_samples(angles: Angles, count: int) -> list[float]:
    """Up to `count` float angles spread over the angle set."""
    if angles is None:
        return [-math.pi + 2 * math.pi * i / count for i in range(count)]
    if isinstance(angles, PiLinear):
        return [float(angles)]
    if isinstance(angles, Interval):
        lo, hi = float(angles.lo), float(angles.hi)
        return [lo + (hi - lo) * i / max(1, count - 1) for i in range(count)]
    base = angles.base
    q0, q1, step = base.a / base.d, base.b / base.d, 2 / angles.count
    return [q0 + (q1 + j * step) * math.pi for j in range(min(angles.count, count))]


def sample_points(L: LevelSet, per_component: int = 64) -> list[tuple[float, float]]:
    """Float (re, im) samples for CSV export and cross-checks.

    A coordinate whose magnitude overflows a float is +-inf; one that is
    exactly 0 stays 0.
    """
    out: list[tuple[float, float]] = []
    for c in L.components:
        lo, hi = c.lo_log, c.hi_log
        if c.lo_m is c.hi_m:
            radii, count = [lo], per_component
        else:
            count = max(2, int(math.isqrt(per_component)))
            radii = [lo + (hi - lo) * Fraction(i, count - 1) for i in range(count)]
        angles = _angle_samples(c.angles, count)
        for m in radii:
            out.extend(float_polar(m, t) for t in angles)
    return out


def float_polar(log_mod: Fraction, angle: float) -> tuple[float, float]:
    """(re, im) of e^log_mod at the angle, in floats: a modulus past the
    float range is inf and one below it 0."""
    try:
        r = math.exp(float(log_mod))
    except OverflowError:
        r = math.inf if log_mod > 0 else 0.0
    x, y = math.cos(angle), math.sin(angle)
    # a zero factor is kept as is: inf * 0.0 is nan
    return r * x if x else x, r * y if y else y


class LevelCache:
    """One run's level sets of one spectrum, each built once, as its view.

    * `sup(n, digits)` encloses, per circle of the view's sup candidates,
      one with the circle's largest |angle| (the module docstring gives
      the argument).  `normalize` only merges arcs, lets circles absorb,
      drops covered points and enumerates small orbits, none of which
      changes a circle's largest |angle|, so the result is
      `sup_abs_one_minus(self.level(n), digits)`.  The circles share one
      cos per |angle|, as cos is even (see `_sup_ints`).
    * `sup_sqrt(n, digits)` is the square root of that sup, as
      `interval_sqrt` rounds it, taken from the same winning integers:
      each (level, precision) is enclosed once for both.
    * `contains(n, p)` is membership, read off the view.
    * `antipodes(n)` is the antipodal set of level n: `antipodal_set`
      over the view's isolated points and the rest of the view
      normalized, so a circle's arcs and lattices are merged before they
      meet.  `antipodal_sample(n)` reads its first point or component.
    * `level(n)` normalizes the whole view, once, for the thread search's
      seeds and the printouts that need the canonical order.
    """

    def __init__(self, Z: SpectrumSet):
        self.Z = Z
        self._views: dict[int, list[Component]] = {}
        self._levels: dict[int, LevelSet] = {}
        self._splits: dict[int, tuple[list[Component], list[Component]]] = {}
        self._indexes: dict[int, tuple[set[tuple[LogMod, PiLinear]], LevelSet]] = {}
        self._sups: dict[tuple[int, int], SupInts] = {}
        self._sup_results: dict[tuple[int, int], SupResult] = {}

    def view(self, n: int) -> list[Component]:
        """level_view(self.Z, n), built once."""
        if n not in self._views:
            self._views[n] = level_view(self.Z, n)
        return self._views[n]

    def level(self, n: int) -> LevelSet:
        """level_set(self.Z, n), normalized from the view once."""
        if n not in self._levels:
            self._levels[n] = normalize(n, self.view(n))
        return self._levels[n]

    def _split(self, n: int) -> tuple[list[Component], list[Component]]:
        """The view's isolated points and its other components, split once."""
        if n not in self._splits:
            self._splits[n] = _split_points(self.view(n))
        return self._splits[n]

    def contains(self, n: int, p: LevelPoint) -> bool:
        """membership(self.level(n), p): a lookup among the view's isolated
        points, else a scan of its other components, one per primitive and
        angle set."""
        if n not in self._indexes:
            points, spread = self._split(n)
            self._indexes[n] = ({(c.lo_m, c.angles) for c in points}, LevelSet(n, tuple(spread)))
        points, spread = self._indexes[n]
        return (p.m, p.angle) in points or membership(spread, p)

    def _sup_bounds(self, n: int, digits: int) -> SupInts:
        """`_sup_ints` over level n's widest candidates, once per precision."""
        key = (n, digits)
        if key not in self._sups:
            self._sups[key] = _sup_ints(_widest_per_circle(self.view(n)), digits)
        return self._sups[key]

    def sup(self, n: int, digits: int = 30) -> SupResult:
        """sup |1 - z|^2 over level n, built once per precision."""
        key = (n, digits)
        if key not in self._sup_results:
            self._sup_results[key] = _sup_result(*self._sup_bounds(n, digits))
        return self._sup_results[key]

    def sup_sqrt(self, n: int, digits: int) -> tuple[int, int]:
        """sup |1 - z| over level n within [lo, hi] * 10**-digits: the ends
        interval_sqrt gives for sup(n, digits)."""
        return sqrt_ints(*self._sup_bounds(n, digits), digits)

    def antipodes(self, n: int) -> LevelSet:
        """antipodal_set(self.level(n)), from the view's isolated points and
        its other components normalized.  The points need no normalizing:
        `normalize` only drops a point that an arc or lattice on its circle
        covers, and the antipodal set meets that point through the covering
        component as well.  The rest does: there a circle's arcs merge, so
        a lattice on a covered circle meets the full circle, not each arc
        member by member."""
        points, spread = self._split(n)
        return antipodal_set(LevelSet(n, (*points, *normalize(n, spread).components)))

    def antipodal_sample(self, n: int) -> Union[LevelPoint, Component, None]:
        """The first point of `antipodes(n)`, or its first component when
        that set is not a few points; None when it is empty."""
        A = self.antipodes(n)
        pts = enumerate_points(A, 1)
        return pts[0] if pts else next(iter(A.components), None)

    def eventual(self, n: int, K: int) -> LevelSet:
        """Level n; kept only for the benchmark tracer, which looks it up."""
        return self.level(n)
