"""Level sets cl(exp(Z / 2^n)) and their exact circle geometry.

A level set is a finite union of components, and every component is one
record, `Component(lo_log, hi_log, angles)`, the product of two factors:

* radial: the log-modulus range [lo_log, hi_log] (lo_log is hi_log for a
  component on the circle |z| = e^m);
* angles: one reduced angle (a PiLinear), an anchored interval
  ``Interval(lo, hi)``, a lattice orbit ``Orbit(base, step)`` =
  {base + j*step*pi} stored lazily, so lattice spectra stay tractable at
  deep levels without enumerating 2^n points, or None for the full circle.

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
from fractions import Fraction
from typing import Iterable, Optional, Union

from .exactnum import PI, TWO_PI, PiLinear, Rat, _mk, _raw, _rat_gcd, compare, floor_ratio, reduce_mod_2pi
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
# angle sets


@record
class Interval:
    """The angles [lo, hi].  Read off a component it is anchored: lo in
    (-pi, pi] and hi - lo < 2*pi; make_component anchors any interval."""

    lo: PiLinear
    hi: PiLinear


@record
class Orbit:
    """The angle orbit {base + j*step*pi mod 2*pi : j integer}.

    Read off a component, step is a positive rational with 2/step integral
    (a finite orbit) and base.q1 lies in [0, step).  All members share the
    irrational angle offset base.q0.
    """

    base: PiLinear
    step: Fraction

    @property
    def count(self) -> int:
        return 2 * self.step.denominator // self.step.numerator

    def angle(self, j: int) -> PiLinear:
        """The member base + j*step*pi, not reduced."""
        base, step = self.base, self.step
        sd = step.denominator
        return _mk(base.a * sd, base.b * sd + j * step.numerator * base.d, base.d * sd)


Angles = Union[PiLinear, Interval, Orbit, None]  # None is the full circle

# the order in which component_intersection meets two angle sets
_ANGLE_RANK = {PiLinear: 0, type(None): 1, Interval: 2, Orbit: 3}


# ---------------------------------------------------------------------------
# components


# LevelPoint and Component are nearly all the records a run builds and
# hashes, so they are written out: slotted, set through their slot
# descriptors, and compared and hashed with direct attribute loads.  Repr,
# equality and hash are those of the records in records.py.


class LevelPoint(Frozen):
    """The point e**log_mod * exp(i*angle), angle reduced to (-pi, pi]."""

    __slots__ = _fields = ("log_mod", "angle")

    def __init__(self, log_mod: Fraction, angle: PiLinear):
        _set_log_mod(self, log_mod)
        _set_angle(self, angle)

    def __eq__(self, other):
        if other.__class__ is not LevelPoint:
            return NotImplemented
        return self.log_mod == other.log_mod and self.angle == other.angle

    def __hash__(self) -> int:
        return hash((self.log_mod, self.angle))

    def __repr__(self) -> str:
        return f"LevelPoint(log_mod={self.log_mod!r}, angle={self.angle!r})"

    def __reduce__(self):
        return LevelPoint, (self.log_mod, self.angle)


class Component(Frozen):
    """Log-modulus in [lo_log, hi_log] times the angle set `angles`.

    Built by make_component, it is canonical: on one circle lo_log is
    hi_log and the angles are a reduced point, an anchored interval, an
    orbit of at least two members or None; a radial range takes an
    anchored interval or None.
    """

    __slots__ = _fields = ("lo_log", "hi_log", "angles")

    def __init__(self, lo_log: Fraction, hi_log: Fraction, angles: Angles):
        _set_lo_log(self, lo_log)
        _set_hi_log(self, hi_log)
        _set_angles(self, angles)

    def __eq__(self, other):
        if other.__class__ is not Component:
            return NotImplemented
        return self.lo_log == other.lo_log and self.hi_log == other.hi_log and self.angles == other.angles

    def __hash__(self) -> int:
        return hash((self.lo_log, self.hi_log, self.angles))

    def __repr__(self) -> str:
        return f"Component(lo_log={self.lo_log!r}, hi_log={self.hi_log!r}, angles={self.angles!r})"

    def __reduce__(self):
        return Component, (self.lo_log, self.hi_log, self.angles)

    def points(self, limit: Optional[int] = None) -> list[LevelPoint]:
        """An orbit component's members for j = 0, 1, ..., or only its first
        `limit`, each angle reduced to (-pi, pi]."""
        orbit, m = self.angles, self.lo_log
        if orbit.count > ENUM_LIMIT:
            raise ComputationLimit(
                f"lattice orbit of {orbit.count} points exceeds the enumeration "
                f"limit {ENUM_LIMIT}"
            )
        take = orbit.count if limit is None else min(orbit.count, limit)
        return [LevelPoint(m, reduce_mod_2pi(orbit.angle(j))) for j in range(take)]


_set_log_mod, _set_angle = LevelPoint.log_mod.__set__, LevelPoint.angle.__set__
_set_lo_log, _set_hi_log = Component.lo_log.__set__, Component.hi_log.__set__
_set_angles = Component.angles.__set__

# the benchmark tracer counts lattice points enumerated under this name
CircleLattice = Component


@record
class LevelSet:
    level: int
    components: tuple[Component, ...]

    def is_empty(self) -> bool:
        return not self.components


# ---------------------------------------------------------------------------
# construction helpers


_pl_key = functools.cmp_to_key(compare)


def make_component(lo_log: Fraction, hi_log: Fraction, angles: Angles) -> Component:
    """The canonical component for log-modulus in [lo_log, hi_log] times angles.

    The angles need not be reduced: a point angle is reduced to (-pi, pi],
    an interval anchored (the full circle once it spans 2*pi) and an
    orbit's base brought into [0, step).  On one radius an interval of
    one angle is that point and a one-member orbit its member; a radial
    range takes an interval or the full circle.
    """
    if lo_log is hi_log or lo_log == hi_log:
        hi_log = lo_log
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
            if lo_log is hi_log and lo == hi:
                return Component(lo_log, lo_log, lo)
            return Component(lo_log, hi_log, angles if lo is angles.lo else Interval(lo, hi))
        angles = None
    if angles is None:
        return Component(lo_log, hi_log, None)
    if lo_log is not hi_log:
        raise ValueError("a radial range takes an angle interval or the full circle")
    if isinstance(angles, Orbit):
        return make_lattice(lo_log, angles.base, angles.step)
    return Component(lo_log, lo_log, reduce_mod_2pi(angles))


def make_lattice(log_mod: Fraction, base: PiLinear, step: Fraction) -> Component:
    step = Fraction(step)
    sn, sd = step.numerator, step.denominator
    if sn <= 0 or 2 * sd % sn:
        raise ValueError("lattice step must be positive and divide 2")
    # the member of the orbit with q1 in [0, step): j = -floor(q1 / step)
    orbit = Orbit(Orbit(base, step).angle(-(base.b * sd // (base.d * sn))), step)
    if orbit.count == 1:
        return Component(log_mod, log_mod, reduce_mod_2pi(orbit.base))
    return Component(log_mod, log_mod, orbit)


# ---------------------------------------------------------------------------
# normalization


def normalize(level: int, components: Iterable[Component]) -> LevelSet:
    """Canonical form: circles absorb, arcs merge (with wraparound), points
    dedupe and drop into covering arcs/lattices, small lattices enumerate,
    sectors and annuli dedupe into one exact order."""
    # one bucket per circle, one list per angle kind (indexed by _ANGLE_RANK)
    by_log: dict[Fraction, tuple[list, list, list, list]] = {}
    others: list[Component] = []
    for c in components:
        lo_log, hi_log, a = c.lo_log, c.hi_log, c.angles
        if not (lo_log is hi_log or lo_log == hi_log):
            others.append(c)
            continue
        kinds = by_log.setdefault(lo_log, ([], [], [], []))
        if a.__class__ is Orbit and a.count <= SMALL_ORBIT:  # enters as its points
            kinds[0].extend(Component(lo_log, lo_log, p.angle) for p in c.points())
        else:
            kinds[_ANGLE_RANK[a.__class__]].append(c)

    out: list[Component] = []
    for log_mod in sorted(by_log):
        points, circles, arcs, lattices = by_log[log_mod]
        arcs = None if circles else _merge_arcs(log_mod, arcs)
        if arcs is None:
            out.append(Component(log_mod, log_mod, None))
            continue
        lattices = sorted(set(lattices), key=lambda c: (c.angles.step, c.angles.base.q0, c.angles.base.q1))
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
    if c.angles is None:
        return (c.lo_log, c.hi_log, 0)
    return (c.lo_log, c.hi_log, 1, _pl_key(c.angles.lo), _pl_key(c.angles.hi))


def _merge_arcs(log_mod: Fraction, arcs: list[Component]) -> Optional[list[Component]]:
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
    out = [make_component(log_mod, log_mod, Interval(lo, hi)) for lo, hi in merged]
    return None if any(c.angles is None for c in out) else out


# ---------------------------------------------------------------------------
# the level sets themselves


def _part_angles(part: SectionPart) -> list[Angles]:
    """The angle sets of a section part's exponential image, before the
    scaling by 1/2^n.  An irrational lattice step makes the orbit dense:
    its closure is the full circle."""
    if isinstance(part, SectionPoints):
        return list(part.values)
    if isinstance(part, SectionInterval):
        return [Interval(part.lo, part.hi)]
    if isinstance(part, SectionLattice):
        return [Orbit(part.base, part.step.q1) if part.step.q0 == 0 else None]
    return [None]


def level_view(Z: SpectrumSet, n: int) -> list[Component]:
    """cl(exp(Z / 2^n)) before normalization: each primitive's real range
    scaled by 2^-n, times each angle set of its section part scaled by
    2^-n, one component per angle set.  A points part on one radius gives
    isolated points directly."""
    if n < 0:
        raise ValueError("level must be >= 0")
    comps: list[Component] = []
    half = Fraction(1, 2**n)
    for p in Z.primitives:
        lo = p.re_lo * half
        # a primitive on one vertical line holds its one real value twice
        hi = lo if p.re_hi is p.re_lo else p.re_hi * half
        S = p.section
        if isinstance(S, SectionPoints) and lo == hi:
            comps.extend(Component(lo, lo, _scaled_point(a, n)) for a in S.values)
        else:
            comps.extend(make_component(lo, hi, _map_angles(a, half)) for a in _part_angles(S))
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
    return _orbit_contains(angles.base, angles.step, angle)


def _orbit_contains(base: PiLinear, step: Fraction, angle: PiLinear) -> bool:
    """Whether the reduced angle lies in {base + j*step*pi mod 2*pi}, for a
    step dividing 2: the same q0, and q1 - base.q1 = (angle.b*e -
    base.b*d) / (d*e) a multiple of step."""
    d, e = angle.d, base.d
    return angle.a * e == base.a * d and (
        (angle.b * e - base.b * d) * step.denominator % (d * e * step.numerator) == 0
    )


def on_line_level(prim: Union[VLine, ILattice], n: int, p: LevelPoint) -> bool:
    """Whether p lies in level n of `prim` alone: on its circle, of
    log-modulus re / 2^n, and for a lattice of rational step in the orbit
    that `level_view` scales its angles to.  A line's level, and the
    closure of a dense orbit, is the whole circle.  It builds no record,
    as `threads.tail_closes` asks it along the search."""
    if p.log_mod * (1 << n) != prim.re:
        return False
    if isinstance(prim, VLine) or prim.step.a:
        return True
    half = Fraction(1, 1 << n)
    return _orbit_contains(prim.base.scaled(half), _rat_gcd((prim.step.q1 * half, Fraction(2))), p.angle)


def membership(L: LevelSet, p: LevelPoint) -> bool:
    """Exact containment of a point in a level set."""
    m = p.log_mod
    for c in L.components:
        lo, hi = c.lo_log, c.hi_log
        # one circle needs one comparison (its lo_log is its hi_log)
        if (m == lo if lo is hi else lo <= m <= hi) and _angles_contain(c.angles, p.angle):
            return True
    return False


# ---------------------------------------------------------------------------
# antipodes and powers: the affine angle maps a -> a + pi and a -> s*a


def _map_angles(angles: Angles, k: Rat, shift: Optional[PiLinear] = None) -> Angles:
    """The angle set under a -> k*a + shift for rational k > 0, not reduced.

    An orbit's step may be any positive rational on the way in; on the way
    out it is gcd(k*step, 2), which divides 2.
    """
    if angles is None:
        return None
    if isinstance(angles, PiLinear):
        a = angles if k == 1 else angles.scaled(k)
        return a if shift is None else a + shift
    if isinstance(angles, Interval):
        return Interval(_map_angles(angles.lo, k, shift), _map_angles(angles.hi, k, shift))
    return Orbit(_map_angles(angles.base, k, shift), _rat_gcd((k * angles.step, Fraction(2))))


def antipode_component(c: Component) -> Component:
    return make_component(c.lo_log, c.hi_log, _map_angles(c.angles, 1, PI))


def power_component(c: Component, s: int) -> Component:
    """Image of a component under z -> z**s for s >= 1."""
    if s < 1:
        raise ValueError("power must be >= 1")
    return make_component(s * c.lo_log, s * c.hi_log, _map_angles(c.angles, s))


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

    Isolated points pair up per circle: a point is kept when its angle
    plus pi, reduced, is among its circle's angles (reduced angles are
    equal exactly when their coefficients are).  Only pairs with an arc,
    circle, lattice, sector or annulus on one side are intersected.
    """
    points, spread = _split_points(L.components)
    # circles keyed by the integers of their log-modulus, each with its angles
    circles: dict[tuple[int, int], tuple[Fraction, set[PiLinear]]] = {}
    for c in points:
        m = c.lo_log
        circles.setdefault((m.numerator, m.denominator), (m, set()))[1].add(c.angles)
    out: list[Component] = [
        Component(m, m, a)
        for m, angles in circles.values()
        for a in angles
        if reduce_mod_2pi(a + PI) in angles
    ]
    if spread:
        mirrored_spread = [antipode_component(c) for c in spread]
        for a in L.components:
            for b in mirrored_spread:
                out.extend(component_intersection(a, b))
        mirrored_points = [antipode_component(c) for c in points]
        for a in spread:
            for b in mirrored_points:
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
    step_pl = PiLinear(0, orbit.step)
    jmin = -floor_ratio(orbit.base - lo, step_pl)
    jmax = floor_ratio(hi - orbit.base, step_pl)
    if jmax - jmin + 1 > ENUM_LIMIT:
        raise ComputationLimit(
            f"lattice-interval intersection of {jmax - jmin + 1} points exceeds "
            f"the enumeration limit {ENUM_LIMIT}"
        )
    return [orbit.angle(j) for j in range(jmin, jmax + 1)]


def _orbit_intersection(a: Orbit, b: Orbit) -> list[Orbit]:
    # a.base + k*a.step meets b's orbit where k*u = t mod v, with u, v the
    # coprime integers a.step/g, b.step/g and t = (b.base - a.base)/g
    g = _rat_gcd((a.step, b.step))
    t = (b.base.q1 - a.base.q1) / g
    if a.base.q0 != b.base.q0 or t.denominator != 1:
        return []
    u, v = int(a.step / g), int(b.step / g)
    k = int(t) * pow(u, -1, v) % v
    return [Orbit(PiLinear(a.base.q0, a.base.q1 + k * a.step), a.step * v)]


def component_intersection(a: Component, b: Component) -> list[Component]:
    """Exact intersection of two components (possibly empty).

    The radial ranges meet by max/min; the angle sets, ordered point <
    full circle < interval < orbit, meet in one table of five cases.
    """
    lo, hi = max(a.lo_log, b.lo_log), min(a.hi_log, b.hi_log)
    if lo > hi:
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
    r = t / 2**n
    L = level_set(Z, n)
    out: list[Component] = []
    for c in L.components:
        lo, hi = c.lo_log, c.hi_log
        if lo <= r <= hi:
            out.append(c if lo == hi else make_component(r, r, c.angles))
    section = normalize(n, out)
    if check_consistency and image_closedness(Z, n).closed:
        expected = _section_image(vertical_section(Z, t), n, r)
        if section != expected:
            raise ConsistencyError(
                f"circle section at t={t}, n={n} disagrees with the section image"
            )
    return section


def _section_image(S: SectionSet, n: int, log_mod: Fraction) -> LevelSet:
    half = Fraction(1, 2**n)
    angles = [a for part in S.parts for a in _part_angles(part)]
    return normalize(n, [make_component(log_mod, log_mod, _map_angles(a, half)) for a in angles])


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
    j0 = floor_ratio(PI - angles.base, PiLinear(0, angles.step))
    return [reduce_mod_2pi(angles.angle(j)) for j in (j0 - 1, j0, j0 + 1)]


def component_sup_candidates(c: Component) -> list[LevelPoint]:
    """Finitely many points where sup |1 - z| over the component is attained.

    On a circle |1 - z| grows with angular distance from 0 and, at fixed
    angle, is monotone towards the radial extremes, so the sup sits at an
    angle endpoint, the antipodal angle when covered, or a radial corner.
    """
    radii, angles = _sup_factors(c)
    return [LevelPoint(m, a) for m in radii for a in angles]


def _sup_factors(c: Component) -> tuple[tuple[Fraction, ...], list[PiLinear]]:
    """The radii and the angles whose pairs are the component's sup candidates."""
    lo, hi = c.lo_log, c.hi_log
    return (lo,) if lo is hi or lo == hi else (lo, hi), _angle_sup_candidates(c.angles)


def sup_abs_one_minus(L: LevelSet, digits: int = 30) -> SupResult:
    """sup over the level set of |1 - z|^2, as a certified enclosure."""
    return _sup_over([p for c in L.components for p in component_sup_candidates(c)], digits)


def _sup_over(points: list[LevelPoint], digits: int) -> SupResult:
    """The largest |1 - z|^2 over the points, as a certified enclosure."""
    return _sup_result(*_sup_ints(points, digits))


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
    exps: dict[tuple[int, int], tuple[int, int, int]] = {}
    coss: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    lo_n, lo_d, hi_n, hi_d = -1, 1, -1, 1
    for p in points:
        m, a = p.log_mod, p.angle
        ak = even_key(a)
        c = coss.get(ak)
        if c is None:
            c = coss[ak] = _cos_ints(a, digits + 2)
        mk = m.numerator, m.denominator
        e = exps.get(mk)
        if e is None:
            e = exps[mk] = _exp_ints(m, digits + 2)
        lo, hi, den = _abs1m_sq_combine(e, c)
        if hi * hi_d > hi_n * den:
            hi_n, hi_d = hi, den
        if lo * lo_d > lo_n * den:
            lo_n, lo_d = lo, den
    return (lo_n, lo_d), (hi_n, hi_d)


def _widest_per_circle(components: Iterable[Component]) -> list[LevelPoint]:
    """Per circle, one sup candidate of the components with that circle's
    largest |angle|: the only candidates that can attain the sup (see the
    module docstring), and a +-angle tie has one value.  Circles are keyed
    by the integers of their log-modulus."""
    widest: dict[tuple[int, int], tuple[Fraction, PiLinear]] = {}
    for c in components:
        radii, angles = _sup_factors(c)
        for m in radii:
            key = (m.numerator, m.denominator)
            for a in angles:
                q = widest.get(key)
                if q is None or _compare_abs(a, q[1]) > 0:
                    widest[key] = m, a
    return [LevelPoint(m, a) for m, a in widest.values()]


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
        pts.extend([LevelPoint(c.lo_log, a)] if a.__class__ is PiLinear else c.points(left))
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
    q0, q1, step = float(angles.base.q0), float(angles.base.q1), float(angles.step)
    return [q0 + (q1 + j * step) * math.pi for j in range(min(angles.count, count))]


def sample_points(L: LevelSet, per_component: int = 64) -> list[tuple[float, float]]:
    """Float (re, im) samples for CSV export and cross-checks.

    A coordinate whose magnitude overflows a float is +-inf; one that is
    exactly 0 stays 0.
    """
    out: list[tuple[float, float]] = []
    for c in L.components:
        lo, hi = c.lo_log, c.hi_log
        if lo == hi:
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
      the argument).  These attain the sup of the normalized level, so the
      result is `sup_abs_one_minus(self.level(n), digits)`, except where
      two candidates on one circle have values within 10^-digits of each
      other: a dropped candidate's enclosure could have moved sq_lo or
      sq_hi by that much.  The circles share one cos per |angle|, as cos
      is even (see `_sup_ints`).
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
        self._indexes: dict[int, tuple[set[tuple[Fraction, PiLinear]], LevelSet]] = {}
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
            self._indexes[n] = ({(c.lo_log, c.angles) for c in points}, LevelSet(n, tuple(spread)))
        points, spread = self._indexes[n]
        return (p.log_mod, p.angle) in points or membership(spread, p)

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
