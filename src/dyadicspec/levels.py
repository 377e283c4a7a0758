"""Level sets cl(exp(Z / 2^n)) and their exact circle geometry.

A level set is a finite union of components on circles |z| = e^m with
rational m (the log-modulus):

* isolated points (log-modulus + reduced angle),
* arcs (angle intervals, endpoints exact PiLinear values),
* full circles,
* circle lattices: finite angle orbits {base + k*step*pi} stored lazily,
  so lattice spectra stay tractable at deep levels without enumerating
  2^n points,
* sectors and full annuli for rectangle sources.

Powers act componentwise, so z -> z^s is exact on this grammar.  Squaring
maps the compact X_{n+1} onto X_n, so level n is the projection of the
inverse limit.  Closure points demanded by the closedness analysis (dense
lattice orbits) appear as full circles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .exactnum import PiLinear, compare, floor_ratio, reduce_mod_2pi
from .realbounds import abs1m_sq_bounds, abs1m_sq_exact
from .spectrum import (
    ConsistencyError,
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SectionInterval,
    SectionLattice,
    SectionLine,
    SectionPoints,
    SectionSet,
    SpectrumSet,
    VLine,
    VSegment,
    image_closedness,
    vertical_section,
)

PI = PiLinear(0, 1)
TWO_PI = PiLinear(0, 2)

ENUM_LIMIT = 4096  # explicit enumeration guard
SMALL_ORBIT = 16  # lattice orbits at most this size normalize into points


class ComputationLimit(RuntimeError):
    """An exact enumeration would exceed the configured size guard."""


@dataclass(frozen=True)
class LevelPoint:
    log_mod: Fraction  # modulus is e**log_mod
    angle: PiLinear  # reduced to (-pi, pi]


@dataclass(frozen=True)
class IsolatedPoint:
    point: LevelPoint


@dataclass(frozen=True)
class Arc:
    """Angles [lo, hi] at one radius; lo anchored in (-pi, pi], span < 2*pi."""

    log_mod: Fraction
    lo: PiLinear
    hi: PiLinear


@dataclass(frozen=True)
class FullCircle:
    log_mod: Fraction


@dataclass(frozen=True)
class CircleLattice:
    """Finite angle orbit {base + k*step*pi mod 2*pi}, stored without enumeration.

    step is a positive rational with 2/step integral; base.q1 lies in
    [0, step).  All members share the irrational angle offset base.q0.
    """

    log_mod: Fraction
    base: PiLinear
    step: Fraction

    @property
    def count(self) -> int:
        return int(Fraction(2) / self.step)

    def member(self, j: int) -> LevelPoint:
        """The orbit point base + j*step*pi, its angle reduced to (-pi, pi]."""
        return LevelPoint(
            self.log_mod,
            reduce_mod_2pi(PiLinear(self.base.q0, self.base.q1 + j * self.step)),
        )

    def points(self, limit: Optional[int] = None) -> list[LevelPoint]:
        """The orbit for j = 0, 1, ..., or only its first `limit` members."""
        if self.count > ENUM_LIMIT:
            raise ComputationLimit(
                f"lattice orbit of {self.count} points exceeds the enumeration "
                f"limit {ENUM_LIMIT}"
            )
        take = self.count if limit is None else min(self.count, limit)
        return [self.member(j) for j in range(take)]

    def contains_angle(self, angle: PiLinear) -> bool:
        if angle.q0 != self.base.q0:
            return False
        return ((angle.q1 - self.base.q1) / self.step).denominator == 1


@dataclass(frozen=True)
class Sector:
    """log_mod in [lo_log, hi_log], angle in [lo, hi] (span < 2*pi, anchored)."""

    lo_log: Fraction
    hi_log: Fraction
    lo: PiLinear
    hi: PiLinear


@dataclass(frozen=True)
class Annulus:
    lo_log: Fraction
    hi_log: Fraction


Component = Union[IsolatedPoint, Arc, FullCircle, CircleLattice, Sector, Annulus]


@dataclass(frozen=True)
class LevelSet:
    level: int
    components: tuple[Component, ...]

    def is_empty(self) -> bool:
        return not self.components


# ---------------------------------------------------------------------------
# construction helpers


def _cmp_pl(a: PiLinear, b: PiLinear) -> int:
    return compare(a, b)


_pl_key = functools.cmp_to_key(_cmp_pl)


def anchor_angles(lo: PiLinear, hi: PiLinear) -> tuple[PiLinear, PiLinear] | None:
    """Shift [lo, hi] by a multiple of 2*pi so lo lands in (-pi, pi].

    Returns None when the span is >= 2*pi (the full circle).
    """
    span = hi - lo
    if span.sign() < 0:
        raise ValueError("angle interval with lo > hi")
    if span - TWO_PI >= PiLinear(0, 0):
        return None
    new_lo = reduce_mod_2pi(lo)
    shift = new_lo - lo
    return new_lo, hi + shift


def make_arc(log_mod: Fraction, lo: PiLinear, hi: PiLinear) -> Component:
    anchored = anchor_angles(lo, hi)
    if anchored is None:
        return FullCircle(log_mod)
    lo, hi = anchored
    if lo == hi:
        return IsolatedPoint(LevelPoint(log_mod, lo))
    return Arc(log_mod, lo, hi)


def make_sector(
    lo_log: Fraction, hi_log: Fraction, lo: PiLinear, hi: PiLinear
) -> Component:
    if lo_log == hi_log:
        return make_arc(lo_log, lo, hi)
    anchored = anchor_angles(lo, hi)
    if anchored is None:
        return Annulus(lo_log, hi_log)
    return Sector(lo_log, hi_log, anchored[0], anchored[1])


def make_lattice(log_mod: Fraction, base: PiLinear, step: Fraction) -> Component:
    step = Fraction(step)
    if step <= 0 or (Fraction(2) / step).denominator != 1:
        raise ValueError("lattice step must be positive and divide 2")
    base = PiLinear(base.q0, base.q1 % step)
    lat = CircleLattice(log_mod, base, step)
    if lat.count == 1:
        return IsolatedPoint(lat.member(0))
    return lat


def _rat_gcd2(a: Fraction, b: Fraction) -> Fraction:
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


# ---------------------------------------------------------------------------
# normalization


def _angle_in_interval(angle: PiLinear, lo: PiLinear, hi: PiLinear) -> bool:
    # angle reduced to (-pi, pi]; the interval is anchored with lo in (-pi, pi]
    for cand in (angle, angle + TWO_PI):
        if lo <= cand and cand <= hi:
            return True
    return False


def normalize(level: int, components: Iterable[Component]) -> LevelSet:
    """Canonical form: circles absorb, arcs merge (with wraparound), points
    dedupe and drop into covering arcs/lattices, small lattices enumerate."""
    expanded: list[Component] = []
    for c in components:
        if isinstance(c, CircleLattice) and c.count <= SMALL_ORBIT:
            expanded.extend(IsolatedPoint(p) for p in c.points())
        else:
            expanded.append(c)

    by_log: dict[Fraction, dict[str, list]] = {}
    others: list[Component] = []
    for c in expanded:
        if isinstance(c, (IsolatedPoint, Arc, FullCircle, CircleLattice)):
            key = c.point.log_mod if isinstance(c, IsolatedPoint) else c.log_mod
            bucket = by_log.setdefault(key, {"pts": [], "arcs": [], "circ": [], "lat": []})
            if isinstance(c, IsolatedPoint):
                bucket["pts"].append(c.point)
            elif isinstance(c, Arc):
                bucket["arcs"].append(c)
            elif isinstance(c, FullCircle):
                bucket["circ"].append(c)
            else:
                bucket["lat"].append(c)
        elif isinstance(c, Sector):
            others.append(c)
        elif isinstance(c, Annulus):
            others.append(c)
        else:
            raise TypeError(type(c).__name__)

    out: list[Component] = []
    for log_mod in sorted(by_log):
        bucket = by_log[log_mod]
        if bucket["circ"]:
            out.append(FullCircle(log_mod))
            continue
        arcs, arc_pts, full = _merge_arcs(log_mod, bucket["arcs"])
        if full:
            out.append(FullCircle(log_mod))
            continue
        lattices = sorted(set(bucket["lat"]), key=lambda l: (l.step, l.base.q0, l.base.q1))
        pts: list[LevelPoint] = []
        for p in dict.fromkeys(bucket["pts"] + arc_pts):
            covered = any(
                _angle_in_interval(p.angle, a.lo, a.hi) for a in arcs
            ) or any(l.contains_angle(p.angle) for l in lattices)
            if not covered:
                pts.append(p)
        pts.sort(key=lambda p: (_pl_key(p.angle)))
        out.extend(IsolatedPoint(p) for p in pts)
        out.extend(arcs)
        out.extend(lattices)

    seen = set()
    for c in others:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return LevelSet(level, tuple(out))


def _merge_arcs(
    log_mod: Fraction, arcs: list[Arc]
) -> tuple[list[Arc], list[LevelPoint], bool]:
    """Union of anchored arcs: merged arcs, degenerate leftovers, full flag."""
    if not arcs:
        return [], [], False
    ivs = sorted(((a.lo, a.hi) for a in arcs), key=lambda iv: _pl_key(iv[0]))
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
    out_arcs: list[Arc] = []
    out_pts: list[LevelPoint] = []
    for lo, hi in merged:
        c = make_arc(log_mod, lo, hi)
        if isinstance(c, FullCircle):
            return [], [], True
        if isinstance(c, IsolatedPoint):
            out_pts.append(c.point)
        else:
            out_arcs.append(c)
    return out_arcs, out_pts, False


# ---------------------------------------------------------------------------
# the level sets themselves


def level_set(Z: SpectrumSet, n: int) -> LevelSet:
    """Exact description of cl(exp(Z / 2^n))."""
    if n < 0:
        raise ValueError("level must be >= 0")
    comps: list[Component] = []
    half = Fraction(1, 2**n)
    for p in Z.primitives:
        if isinstance(p, Point):
            comps.append(
                IsolatedPoint(LevelPoint(p.re * half, reduce_mod_2pi(p.im.scaled(half))))
            )
        elif isinstance(p, VSegment):
            comps.append(make_arc(p.re * half, p.im_lo.scaled(half), p.im_hi.scaled(half)))
        elif isinstance(p, ILattice):
            if p.step.q0 != 0:
                # dense angle orbit: the closure is the full circle
                comps.append(FullCircle(p.re * half))
            else:
                comps.append(
                    make_lattice(
                        p.re * half,
                        p.base.scaled(half),
                        _rat_gcd2(p.step.q1 * half, Fraction(2)),
                    )
                )
        elif isinstance(p, VLine):
            comps.append(FullCircle(p.re * half))
        elif isinstance(p, Rect):
            comps.append(
                make_sector(
                    p.re_lo * half,
                    p.re_hi * half,
                    p.im_lo.scaled(half),
                    p.im_hi.scaled(half),
                )
            )
        elif isinstance(p, PrimeFamily):
            for j in p.primes():
                for v in (p.alpha(j), p.beta(j)):
                    comps.append(
                        IsolatedPoint(LevelPoint(Fraction(0), reduce_mod_2pi(v.scaled(half))))
                    )
        else:
            raise TypeError(type(p).__name__)
    return normalize(n, comps)


def membership(L: LevelSet, p: LevelPoint) -> bool:
    """Exact containment of a point in a level set."""
    return any(_component_contains(c, p) for c in L.components)


def _component_contains(c: Component, p: LevelPoint) -> bool:
    if isinstance(c, IsolatedPoint):
        # values q0 + q1*pi are equal exactly when (q0, q1) are: pi is irrational
        return c.point == p
    if isinstance(c, Arc):
        return c.log_mod == p.log_mod and _angle_in_interval(p.angle, c.lo, c.hi)
    if isinstance(c, FullCircle):
        return c.log_mod == p.log_mod
    if isinstance(c, CircleLattice):
        return c.log_mod == p.log_mod and c.contains_angle(p.angle)
    if isinstance(c, Sector):
        if not (c.lo_log <= p.log_mod <= c.hi_log):
            return False
        return _angle_in_interval(p.angle, c.lo, c.hi)
    if isinstance(c, Annulus):
        return c.lo_log <= p.log_mod <= c.hi_log
    raise TypeError(type(c).__name__)


# ---------------------------------------------------------------------------
# antipodes and intersections


def antipode_component(c: Component) -> Component:
    if isinstance(c, IsolatedPoint):
        return IsolatedPoint(
            LevelPoint(c.point.log_mod, reduce_mod_2pi(c.point.angle + PI))
        )
    if isinstance(c, Arc):
        return make_arc(c.log_mod, c.lo + PI, c.hi + PI)
    if isinstance(c, FullCircle):
        return c
    if isinstance(c, CircleLattice):
        return CircleLattice(
            c.log_mod, PiLinear(c.base.q0, (c.base.q1 + 1) % c.step), c.step
        )
    if isinstance(c, Sector):
        return make_sector(c.lo_log, c.hi_log, c.lo + PI, c.hi + PI)
    if isinstance(c, Annulus):
        return c
    raise TypeError(type(c).__name__)


def antipodal_set(L: LevelSet) -> LevelSet:
    """The set of points of L whose antipodes also lie in L.

    Isolated points pair up by hashing (their reduced angles are equal
    exactly when their coefficients are); only pairs with an arc, circle,
    lattice, sector or annulus on one side are intersected.
    """
    points = [c for c in L.components if isinstance(c, IsolatedPoint)]
    spread = [c for c in L.components if not isinstance(c, IsolatedPoint)]
    point_set = set(points)
    mirrored_points = [antipode_component(c) for c in points]
    mirrored_spread = [antipode_component(c) for c in spread]
    out: list[Component] = [m for m in mirrored_points if m in point_set]
    for a in L.components:
        for b in mirrored_spread:
            out.extend(component_intersection(a, b))
    for a in spread:
        for b in mirrored_points:
            out.extend(component_intersection(a, b))
    return normalize(L.level, out)


def levelset_intersection(L1: LevelSet, L2: LevelSet) -> LevelSet:
    out: list[Component] = []
    for a in L1.components:
        for b in L2.components:
            out.extend(component_intersection(a, b))
    return normalize(L1.level, out)


def _interval_intersections(
    lo1: PiLinear, hi1: PiLinear, lo2: PiLinear, hi2: PiLinear
) -> list[tuple[PiLinear, PiLinear]]:
    """Intersections of two anchored angle intervals, modulo 2*pi."""
    out = []
    for shift in (-2, 0, 2):
        a = lo2 + PiLinear(0, shift)
        b = hi2 + PiLinear(0, shift)
        lo = a if compare(a, lo1) > 0 else lo1
        hi = b if compare(b, hi1) < 0 else hi1
        if compare(lo, hi) <= 0:
            out.append((lo, hi))
    return out


def _lattice_points_in_interval(
    lat: CircleLattice, lo: PiLinear, hi: PiLinear
) -> list[LevelPoint]:
    # members have real angles base.q0 + (base.q1 + j*step)*pi (all integers j)
    step_pl = PiLinear(0, lat.step)
    base_pl = PiLinear(lat.base.q0, lat.base.q1)
    jmin = -floor_ratio(base_pl - lo, step_pl)
    jmax = floor_ratio(hi - base_pl, step_pl)
    if jmax - jmin + 1 > ENUM_LIMIT:
        raise ComputationLimit(
            f"lattice-interval intersection of {jmax - jmin + 1} points exceeds "
            f"the enumeration limit {ENUM_LIMIT}"
        )
    return [lat.member(j) for j in range(jmin, jmax + 1)]


def _lattice_intersection(a: CircleLattice, b: CircleLattice) -> list[Component]:
    if a.log_mod != b.log_mod or a.base.q0 != b.base.q0:
        return []
    g = _rat_gcd2(a.step, b.step)
    diff = b.base.q1 - a.base.q1
    if (diff / g).denominator != 1:
        return []
    step = a.step * b.step / g
    den = math.lcm(
        a.step.denominator, b.step.denominator, a.base.q1.denominator, b.base.q1.denominator
    )
    G1, G2 = int(a.step * den), int(b.step * den)
    B1, B2 = int(a.base.q1 * den), int(b.base.q1 * den)
    g12 = math.gcd(G1, G2)
    u0 = ((B2 - B1) // g12 * pow(G1 // g12, -1, G2 // g12)) % (G2 // g12)
    x = Fraction(B1 + G1 * u0, den) % step
    return [make_lattice(a.log_mod, PiLinear(a.base.q0, x), step)]


def component_intersection(a: Component, b: Component) -> list[Component]:
    """Exact intersection of two components (possibly empty)."""
    rank = {IsolatedPoint: 0, Arc: 1, FullCircle: 2, CircleLattice: 3, Sector: 4, Annulus: 5}
    if rank[type(a)] > rank[type(b)]:
        a, b = b, a
    if isinstance(a, IsolatedPoint):
        return [a] if _component_contains(b, a.point) else []
    if isinstance(a, Arc):
        if isinstance(b, Arc):
            if a.log_mod != b.log_mod:
                return []
            return [
                make_arc(a.log_mod, lo, hi)
                for lo, hi in _interval_intersections(a.lo, a.hi, b.lo, b.hi)
            ]
        if isinstance(b, FullCircle):
            return [a] if a.log_mod == b.log_mod else []
        if isinstance(b, CircleLattice):
            if a.log_mod != b.log_mod:
                return []
            return [IsolatedPoint(p) for p in _lattice_points_in_interval(b, a.lo, a.hi)]
        if isinstance(b, Sector):
            if not (b.lo_log <= a.log_mod <= b.hi_log):
                return []
            return [
                make_arc(a.log_mod, lo, hi)
                for lo, hi in _interval_intersections(a.lo, a.hi, b.lo, b.hi)
            ]
        if isinstance(b, Annulus):
            return [a] if b.lo_log <= a.log_mod <= b.hi_log else []
    if isinstance(a, FullCircle):
        if isinstance(b, FullCircle):
            return [a] if a.log_mod == b.log_mod else []
        if isinstance(b, CircleLattice):
            return [b] if a.log_mod == b.log_mod else []
        if isinstance(b, Sector):
            if not (b.lo_log <= a.log_mod <= b.hi_log):
                return []
            return [make_arc(a.log_mod, b.lo, b.hi)]
        if isinstance(b, Annulus):
            return [a] if b.lo_log <= a.log_mod <= b.hi_log else []
    if isinstance(a, CircleLattice):
        if isinstance(b, CircleLattice):
            return _lattice_intersection(a, b)
        if isinstance(b, Sector):
            if not (b.lo_log <= a.log_mod <= b.hi_log):
                return []
            return [IsolatedPoint(p) for p in _lattice_points_in_interval(a, b.lo, b.hi)]
        if isinstance(b, Annulus):
            return [a] if b.lo_log <= a.log_mod <= b.hi_log else []
    if isinstance(a, Sector):
        if isinstance(b, Sector):
            lo_log = max(a.lo_log, b.lo_log)
            hi_log = min(a.hi_log, b.hi_log)
            if lo_log > hi_log:
                return []
            return [
                make_sector(lo_log, hi_log, lo, hi)
                for lo, hi in _interval_intersections(a.lo, a.hi, b.lo, b.hi)
            ]
        if isinstance(b, Annulus):
            lo_log = max(a.lo_log, b.lo_log)
            hi_log = min(a.hi_log, b.hi_log)
            if lo_log > hi_log:
                return []
            return [make_sector(lo_log, hi_log, a.lo, a.hi)]
    if isinstance(a, Annulus) and isinstance(b, Annulus):
        lo_log = max(a.lo_log, b.lo_log)
        hi_log = min(a.hi_log, b.hi_log)
        if lo_log > hi_log:
            return []
        return [Annulus(lo_log, hi_log)]
    raise TypeError(f"intersection {type(a).__name__}/{type(b).__name__}")


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
        if isinstance(c, (IsolatedPoint, Arc, FullCircle, CircleLattice)):
            key = c.point.log_mod if isinstance(c, IsolatedPoint) else c.log_mod
            if key == r:
                out.append(c)
        elif isinstance(c, Sector):
            if c.lo_log <= r <= c.hi_log:
                out.append(make_arc(r, c.lo, c.hi))
        elif isinstance(c, Annulus):
            if c.lo_log <= r <= c.hi_log:
                out.append(FullCircle(r))
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
    comps: list[Component] = []
    for part in S.parts:
        if isinstance(part, SectionPoints):
            comps.extend(
                IsolatedPoint(LevelPoint(log_mod, reduce_mod_2pi(v.scaled(half))))
                for v in part.values
            )
        elif isinstance(part, SectionInterval):
            comps.append(make_arc(log_mod, part.lo.scaled(half), part.hi.scaled(half)))
        elif isinstance(part, SectionLattice):
            if part.step.q0 != 0:
                raise ConsistencyError("section image of a dense lattice (not closed)")
            comps.append(
                make_lattice(
                    log_mod,
                    part.base.scaled(half),
                    _rat_gcd2(part.step.q1 * half, Fraction(2)),
                )
            )
        elif isinstance(part, SectionLine):
            comps.append(FullCircle(log_mod))
        else:
            raise TypeError(type(part).__name__)
    return normalize(n, comps)


def eventual_image(Z: SpectrumSet, n: int, K: int) -> LevelSet:
    """Level n, which is the image of level n+K under K squarings.  Kept
    only for the benchmark tracer, which looks the name up; call level_set."""
    return level_set(Z, n)


def power_component(c: Component, s: int) -> Component:
    """Image of a component under z -> z**s for s >= 1."""
    if s < 1:
        raise ValueError("power must be >= 1")
    if isinstance(c, IsolatedPoint):
        p = c.point
        return IsolatedPoint(LevelPoint(s * p.log_mod, reduce_mod_2pi(p.angle.scaled(s))))
    if isinstance(c, Arc):
        return make_arc(s * c.log_mod, c.lo.scaled(s), c.hi.scaled(s))
    if isinstance(c, FullCircle):
        return FullCircle(s * c.log_mod)
    if isinstance(c, CircleLattice):
        step = _rat_gcd2(s * c.step, Fraction(2))
        return make_lattice(s * c.log_mod, c.base.scaled(s), step)
    if isinstance(c, Sector):
        return make_sector(s * c.lo_log, s * c.hi_log, c.lo.scaled(s), c.hi.scaled(s))
    if isinstance(c, Annulus):
        return Annulus(s * c.lo_log, s * c.hi_log)
    raise TypeError(type(c).__name__)


def power_levelset(L: LevelSet, s: int) -> LevelSet:
    return normalize(L.level, [power_component(c, s) for c in L.components])


# ---------------------------------------------------------------------------
# sup of |1 - z| over a level set


@dataclass(frozen=True)
class SupResult:
    """Certified enclosure of sup |1 - z|^2 with the attaining candidate."""

    sq_lo: Fraction
    sq_hi: Fraction
    exact_sq: Optional[Fraction]
    witness: Optional[LevelPoint]


def component_sup_candidates(c: Component) -> list[LevelPoint]:
    """Finitely many points where sup |1 - z| over the component is attained.

    On a circle |1 - z| grows with angular distance from 0 and, at fixed
    angle, is monotone towards the radial extremes, so the sup sits at an
    angle endpoint, the antipodal angle when covered, or a radial corner.
    """
    if isinstance(c, IsolatedPoint):
        return [c.point]
    if isinstance(c, Arc):
        cands = [LevelPoint(c.log_mod, reduce_mod_2pi(c.lo)), LevelPoint(c.log_mod, reduce_mod_2pi(c.hi))]
        if _angle_in_interval(PI, c.lo, c.hi):
            cands.append(LevelPoint(c.log_mod, PI))
        return cands
    if isinstance(c, FullCircle):
        return [LevelPoint(c.log_mod, PI)]
    if isinstance(c, CircleLattice):
        # closest lattice member to angle pi: solve for j around (pi - q0 - b1*pi)/step*pi
        target = PiLinear(-c.base.q0, 1 - c.base.q1)
        j0 = floor_ratio(target, PiLinear(0, c.step))
        return [c.member(j) for j in (j0 - 1, j0, j0 + 1)]
    if isinstance(c, Sector):
        out = []
        for m in (c.lo_log, c.hi_log):
            out.append(LevelPoint(m, reduce_mod_2pi(c.lo)))
            out.append(LevelPoint(m, reduce_mod_2pi(c.hi)))
            if _angle_in_interval(PI, c.lo, c.hi):
                out.append(LevelPoint(m, PI))
        return out
    if isinstance(c, Annulus):
        return [LevelPoint(c.lo_log, PI), LevelPoint(c.hi_log, PI)]
    raise TypeError(type(c).__name__)


def sup_abs_one_minus(L: LevelSet, digits: int = 30) -> SupResult:
    """sup over the level set of |1 - z|^2, as a certified enclosure."""
    if L.is_empty():
        return SupResult(Fraction(0), Fraction(0), Fraction(0), None)
    best_lo = Fraction(-1)
    best_hi = Fraction(-1)
    best_witness: Optional[LevelPoint] = None
    exacts: list[tuple[Fraction, LevelPoint]] = []
    his: list[Fraction] = []
    for c in L.components:
        for p in component_sup_candidates(c):
            ex = abs1m_sq_exact(p.log_mod, p.angle)
            lo, hi = (ex, ex) if ex is not None else abs1m_sq_bounds(p.log_mod, p.angle, digits)
            if ex is not None:
                exacts.append((ex, p))
            his.append(hi)
            if hi > best_hi:
                best_hi = hi
                best_witness = p
            if lo > best_lo:
                best_lo = lo
    exact_sq = None
    if exacts:
        top = max(exacts, key=lambda t: t[0])
        if all(top[0] >= h for h in his):
            exact_sq = top[0]
            best_witness = top[1]
            best_lo = best_hi = top[0]
    return SupResult(best_lo, best_hi, exact_sq, best_witness)


def log_mod_range(L: LevelSet) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the log-modulus over a nonempty level set."""
    if L.is_empty():
        raise ValueError("empty level set")
    los, his = [], []
    for c in L.components:
        if isinstance(c, IsolatedPoint):
            los.append(c.point.log_mod)
            his.append(c.point.log_mod)
        elif isinstance(c, (Arc, FullCircle, CircleLattice)):
            los.append(c.log_mod)
            his.append(c.log_mod)
        else:
            los.append(c.lo_log)
            his.append(c.hi_log)
    return min(los), max(his)


def enumerate_points(
    L: LevelSet, limit: Optional[int] = None
) -> Optional[list[LevelPoint]]:
    """All points when the set is purely point-like and small, else None.

    With a limit only the first `limit` points are built; whether the
    answer is None is read off the lattice counts before any is built.
    """
    if not all(
        isinstance(c, IsolatedPoint)
        or (isinstance(c, CircleLattice) and c.count <= ENUM_LIMIT)
        for c in L.components
    ):
        return None
    pts: list[LevelPoint] = []
    for c in L.components:
        left = None if limit is None else limit - len(pts)
        if left == 0:
            break
        pts.extend([c.point] if isinstance(c, IsolatedPoint) else c.points(left))
    return pts


def sample_points(L: LevelSet, per_component: int = 64) -> list[tuple[float, float]]:
    """Float (re, im) samples for CSV export and cross-checks."""
    out: list[tuple[float, float]] = []

    def emit(log_mod: Fraction, angle_val: float):
        r = math.exp(float(log_mod))
        out.append((r * math.cos(angle_val), r * math.sin(angle_val)))

    for c in L.components:
        if isinstance(c, IsolatedPoint):
            emit(c.point.log_mod, float(c.point.angle))
        elif isinstance(c, Arc):
            lo, hi = float(c.lo), float(c.hi)
            for i in range(per_component):
                emit(c.log_mod, lo + (hi - lo) * i / max(1, per_component - 1))
        elif isinstance(c, FullCircle):
            for i in range(per_component):
                emit(c.log_mod, -math.pi + 2 * math.pi * i / per_component)
        elif isinstance(c, CircleLattice):
            take = min(c.count, per_component)
            for j in range(take):
                emit(c.log_mod, float(c.base.q0) + (float(c.base.q1) + j * float(c.step)) * math.pi)
        elif isinstance(c, Sector):
            side = max(2, int(math.isqrt(per_component)))
            for i in range(side):
                m = c.lo_log + (c.hi_log - c.lo_log) * Fraction(i, side - 1)
                lo, hi = float(c.lo), float(c.hi)
                for k in range(side):
                    emit(m, lo + (hi - lo) * k / (side - 1))
        elif isinstance(c, Annulus):
            side = max(2, int(math.isqrt(per_component)))
            for i in range(side):
                m = c.lo_log + (c.hi_log - c.lo_log) * Fraction(i, side - 1)
                for k in range(side):
                    emit(m, -math.pi + 2 * math.pi * k / side)
    return out


class LevelCache:
    """Memoized level sets for one spectrum."""

    def __init__(self, Z: SpectrumSet):
        self.Z = Z
        self._levels: dict[int, LevelSet] = {}

    def level(self, n: int) -> LevelSet:
        if n not in self._levels:
            self._levels[n] = level_set(self.Z, n)
        return self._levels[n]

    def eventual(self, n: int, K: int) -> LevelSet:
        """Level n; kept only for the benchmark tracer, which looks it up."""
        return self.level(n)
