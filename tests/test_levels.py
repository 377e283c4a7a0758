import math
import random
from fractions import Fraction as F

import pytest

from dyadicspec.exactnum import EQUAL, PiLinear, compare, floor_ratio, reduce_mod_2pi
from dyadicspec.levels import (
    ENUM_LIMIT,
    Annulus,
    Arc,
    CircleLattice,
    ComputationLimit,
    FullCircle,
    IsolatedPoint,
    LevelCache,
    LevelPoint,
    LevelSet,
    Sector,
    _lattice_points_in_interval,
    antipodal_set,
    antipode_component,
    circle_section,
    component_intersection,
    component_sup_candidates,
    enumerate_points,
    level_set,
    levelset_intersection,
    log_mod_range,
    make_arc,
    make_lattice,
    membership,
    normalize,
    power_component,
    sample_points,
    sup_abs_one_minus,
)
from dyadicspec.spectrum import (
    ILattice,
    Point,
    PrimeFamily,
    SpectrumSet,
    image_closedness,
    real_part_range,
    section_antipode_condition,
    section_representatives,
)

from conftest import random_spectrum


# K-fold squaring, kept as an oracle: the image of level n+K under K
# squarings is level n itself, which the package now reads directly.
def _square_levelset(L: LevelSet) -> LevelSet:
    return normalize(L.level - 1, [power_component(c, 2) for c in L.components])


def _iterated_square(L: LevelSet, K: int) -> LevelSet:
    """Image of L under K >= 1 squarings."""
    if K < 1:
        raise ValueError("K must be >= 1")
    for _ in range(K):
        L = _square_levelset(L)
    return L


def _eventual_image(Z: SpectrumSet, n: int, K: int) -> LevelSet:
    return _iterated_square(level_set(Z, n + K), K)


def test_level_set_examples(roots2k, solenoid, rectangle):
    pts = enumerate_points(level_set(roots2k, 2))
    angles = sorted(p.angle.q1 for p in pts)
    assert angles == [F(-1, 2), F(0), F(1, 2), F(1)]
    assert all(p.log_mod == 0 and p.angle.q0 == 0 for p in pts)

    L = level_set(solenoid, 7)
    assert L.components == (FullCircle(F(0)),)

    L = level_set(rectangle, 0)
    assert L.components == (Annulus(F(-1), F(0)),)
    L2 = level_set(rectangle, 2)
    (sec,) = L2.components
    assert isinstance(sec, Sector)
    assert (sec.lo_log, sec.hi_log) == (F(-1, 4), F(0))
    assert sec.lo == PiLinear(0, F(-1, 4)) and sec.hi == PiLinear(0, F(1, 4))


def test_roots_of_unity_all_levels(roots2k):
    for n in range(0, 11):
        pts = enumerate_points(level_set(roots2k, n))
        assert len(pts) == 2**n
        expected = {F(2 * k, 2**n) % 2 for k in range(2**n)}
        got = {p.angle.q1 % 2 for p in pts}
        assert got == expected


def test_membership_examples(roots2k, rectangle, solenoid):
    L = level_set(roots2k, 2)
    assert membership(L, LevelPoint(F(0), PiLinear(0, F(1, 2))))  # i
    assert not membership(L, LevelPoint(F(0), PiLinear(0, F(1, 3))))
    L = level_set(rectangle, 2)
    assert not membership(L, LevelPoint(F(0), PiLinear(0, 1)))  # angle pi > pi/4
    assert membership(L, LevelPoint(F(-1, 8), PiLinear(0, F(1, 8))))
    L = level_set(solenoid, 5)
    assert membership(L, LevelPoint(F(0), PiLinear(F(1, 7), F(1, 9))))


def test_antipodal_examples(roots2k, rectangle, primefamily):
    A = antipodal_set(level_set(roots2k, 1))
    angles = sorted(p.angle.q1 for p in enumerate_points(A))
    assert angles == [F(0), F(1)]
    assert antipodal_set(level_set(rectangle, 2)).is_empty()
    pf = primefamily.primitives[0]
    n3 = pf.n_of(3)
    A = antipodal_set(level_set(primefamily, n3))
    pts = enumerate_points(A)
    expected = reduce_mod_2pi(pf.alpha(3).scaled(F(1, 2**n3)))
    got = {(p.angle.q0, p.angle.q1) for p in pts}
    anti = reduce_mod_2pi(expected + PiLinear(0, 1))
    assert got == {(expected.q0, expected.q1), (anti.q0, anti.q1)}


def test_antipodal_matches_brute_force_on_finite_sets():
    rng = random.Random(5)
    for _ in range(30):
        Z = random_spectrum(rng)
        for n in (0, 1, 2):
            L = level_set(Z, n)
            pts = enumerate_points(L)
            if pts is None or len(pts) > 600:
                continue
            brute = set()
            index = {(p.log_mod, p.angle.q0, p.angle.q1) for p in pts}
            for p in pts:
                q = reduce_mod_2pi(p.angle + PiLinear(0, 1))
                if (p.log_mod, q.q0, q.q1) in index:
                    brute.add((p.log_mod, p.angle.q0, p.angle.q1))
            got = enumerate_points(antipodal_set(L))
            assert got is not None
            assert {(p.log_mod, p.angle.q0, p.angle.q1) for p in got} == brute, (Z, n)


def test_circle_section_examples(rectangle, roots2k):
    cs = circle_section(rectangle, 1, F(0))
    (arc,) = cs.components
    assert isinstance(arc, Arc)
    assert arc.lo == PiLinear(0, F(-1, 2)) and arc.hi == PiLinear(0, F(1, 2))
    cs = circle_section(roots2k, 0, F(0))
    assert [p.angle for p in enumerate_points(cs)] == [PiLinear(0, 0)]
    assert circle_section(rectangle, 3, F(1)).is_empty()


def test_eventual_image_examples(solenoid, roots2k, rectangle):
    assert _eventual_image(solenoid, 0, 5).components == (FullCircle(F(0)),)
    pts = enumerate_points(_eventual_image(roots2k, 1, 3))
    assert sorted(p.angle.q1 for p in pts) == [F(0), F(1)]
    # brute force: square the 16th roots three times
    raw = {F(2 * k, 16) % 2 for k in range(16)}
    for _ in range(3):
        raw = {(2 * a) % 2 for a in raw}
    assert raw == {p.angle.q1 % 2 for p in pts}
    ei = _eventual_image(rectangle, 0, 2)
    assert ei.components == level_set(rectangle, 0).components


def test_squaring_maps_level_n_plus_k_onto_level_n(roots2k, solenoid, rectangle, primefamily):
    spectra = [roots2k, solenoid, rectangle, primefamily]
    rng = random.Random(606)
    spectra += [random_spectrum(rng) for _ in range(200)]
    for Z in spectra:
        for n in range(5):
            for K in (1, 2, 4):
                assert _eventual_image(Z, n, K) == level_set(Z, n), (Z, n, K)


def test_squaring_compatibility_random():
    rng = random.Random(13)
    for _ in range(25):
        Z = random_spectrum(rng)
        for n in (0, 1, 2):
            child = level_set(Z, n + 1)
            parent = level_set(Z, n)
            for c in child.components:
                for p in component_sup_candidates(c):
                    sq = LevelPoint(2 * p.log_mod, reduce_mod_2pi(p.angle.scaled(2)))
                    assert membership(parent, sq), (Z, n, p)


def test_log_mod_range_bounds_random():
    rng = random.Random(99)
    for _ in range(20):
        Z = random_spectrum(rng)
        eta, zeta = real_part_range(Z)
        for n in (0, 1, 3):
            lo, hi = log_mod_range(level_set(Z, n))
            assert eta * F(1, 2**n) <= lo
            assert hi <= zeta * F(1, 2**n)


def test_sup_matches_dense_sampling(rectangle, roots2k, solenoid):
    for Z, n in ((rectangle, 2), (rectangle, 5), (roots2k, 3), (solenoid, 1)):
        L = level_set(Z, n)
        res = sup_abs_one_minus(L)
        best = 0.0
        for re_, im_ in sample_points(L, per_component=512):
            best = max(best, (1 - re_) ** 2 + im_**2)
        assert best <= float(res.sq_hi) + 1e-9
        assert float(res.sq_lo) <= best + 0.05  # candidates dominate samples


def test_claim_antipodal_iff_shift_condition_on_builtins(
    roots2k, rectangle, solenoid, primefamily
):
    for Z in (roots2k, rectangle, solenoid, primefamily):
        reps = section_representatives(Z)
        for n in range(0, 8):
            if not image_closedness(Z, n).closed and not any(
                isinstance(p, PrimeFamily) for p in Z.primitives
            ):
                continue
            for t in reps:
                sec = circle_section(Z, n, t, check_consistency=False)
                got = not antipodal_set(sec).is_empty()
                want = section_antipode_condition(Z, t, n)
                assert got == want, (Z, t, n)


def test_claim_equivalence_random_spectra():
    rng = random.Random(31337)
    sections_checked = 0
    for _ in range(60):
        Z = random_spectrum(rng)
        reps = section_representatives(Z)
        for n in range(0, 5):
            if not image_closedness(Z, n).closed:
                continue
            for t in reps:
                sec = circle_section(Z, n, t)  # consistency check active
                got = not antipodal_set(sec).is_empty()
                want = section_antipode_condition(Z, t, n)
                assert got == want, (Z, t, n)
                sections_checked += 1
    assert sections_checked > 150


def test_normalize_merges_wraparound_arcs():
    # [3/4 pi, 3/2 pi] crosses the branch cut and touches [-1/2 pi, 0]
    a1 = Arc(F(0), PiLinear(0, F(3, 4)), PiLinear(0, F(3, 2)))
    a2 = Arc(F(0), PiLinear(0, F(-1, 2)), PiLinear(0, F(0)))
    L = normalize(0, [a1, a2])
    (arc,) = L.components
    assert isinstance(arc, Arc)
    assert compare(arc.hi - arc.lo, PiLinear(0, F(5, 4))) == 0
    # and a full cover collapses to the circle
    b1 = Arc(F(0), PiLinear(0, F(1, 2)), PiLinear(0, F(3, 2)))
    b2 = Arc(F(0), PiLinear(0, F(-1, 2)), PiLinear(0, F(1, 2)))
    assert normalize(0, [b1, b2]).components == (FullCircle(F(0)),)


def test_wide_segment_becomes_full_circle():
    from dyadicspec.spectrum import SpectrumSet, VSegment

    Z = SpectrumSet((VSegment(F(1), PiLinear(0, -4), PiLinear(0, 4)),))
    assert level_set(Z, 0).components == (FullCircle(F(1)),)
    assert level_set(Z, 1).components == (FullCircle(F(1, 2)),)  # span 4 pi / 2
    (arc,) = level_set(Z, 2).components
    assert isinstance(arc, FullCircle)  # span exactly 2 pi
    (arc3,) = level_set(Z, 3).components
    assert isinstance(arc3, Arc)


def test_lattice_intersection_and_antipodes():
    lat = CircleLattice(F(0), PiLinear(0, 0), F(1, 16))  # 32nd roots of unity
    rot = CircleLattice(F(0), PiLinear(0, F(1, 32)), F(1, 16))
    L1 = LevelSet(5, (lat,))
    L2 = LevelSet(5, (rot,))
    assert levelset_intersection(L1, L2).is_empty()
    assert not antipodal_set(L1).is_empty()
    odd = CircleLattice(F(0), PiLinear(0, F(1, 3)), F(2, 3))  # 3 points
    assert antipodal_set(LevelSet(1, (odd,))).is_empty()


# ---------------------------------------------------------------------------
# differential tests: the direct level-set paths against enumeration oracles


def _orbit(lat: CircleLattice) -> list[LevelPoint]:
    """Every orbit point, each reduced on its own."""
    return [
        LevelPoint(lat.log_mod, reduce_mod_2pi(PiLinear(lat.base.q0, lat.base.q1 + j * lat.step)))
        for j in range(lat.count)
    ]


def _make_lattice_by_orbit(log_mod, base, step):
    """make_lattice that walks the orbit to see whether it is one point."""
    base = PiLinear(base.q0, base.q1 % step)
    lat = CircleLattice(log_mod, base, step)
    if lat.count <= ENUM_LIMIT:
        pts = _orbit(lat)
        if len(pts) == 1:
            return IsolatedPoint(pts[0])
    return lat


def _same_point(a: LevelPoint, b: LevelPoint) -> bool:
    return a.log_mod == b.log_mod and compare(a.angle, b.angle) == EQUAL


def _antipodal_all_pairs(L: LevelSet) -> LevelSet:
    """antipodal_set as the intersection of every component with every
    mirrored one, isolated points compared by value."""
    mirrored = [antipode_component(c) for c in L.components]
    out = []
    for a in L.components:
        for b in mirrored:
            if isinstance(a, IsolatedPoint) and isinstance(b, IsolatedPoint):
                out.extend([a] if _same_point(a.point, b.point) else [])
            else:
                out.extend(component_intersection(a, b))
    return normalize(L.level, out)


def _enumerate_all(L: LevelSet):
    """enumerate_points without a limit, walking every lattice orbit."""
    pts = []
    for c in L.components:
        if isinstance(c, IsolatedPoint):
            pts.append(c.point)
        elif isinstance(c, CircleLattice) and c.count <= ENUM_LIMIT:
            pts.extend(_orbit(c))
        else:
            return None
    return pts


def _random_mixed_level(rng: random.Random) -> LevelSet:
    """Points (some in antipodal pairs), lattices and arcs on two circles."""
    comps = []
    for _ in range(rng.randint(1, 7)):
        m = rng.choice((F(0), F(1, 2)))
        angle = PiLinear(
            rng.choice((F(0), F(0), F(1, 3), F(-2, 5))),
            F(rng.randint(-8, 8), rng.choice((1, 2, 4, 8, 16))),
        )
        kind = rng.choice(("point", "point", "pair", "lattice", "arc"))
        if kind in ("point", "pair"):
            comps.append(IsolatedPoint(LevelPoint(m, reduce_mod_2pi(angle))))
        if kind == "pair":
            comps.append(IsolatedPoint(LevelPoint(m, reduce_mod_2pi(angle + PiLinear(0, 1)))))
        if kind == "lattice":
            # counts of at most 16 normalize into points, larger ones stay lattices
            comps.append(make_lattice(m, angle, F(2, rng.choice((1, 3, 4, 32, 64)))))
        if kind == "arc":
            comps.append(make_arc(m, angle, angle + PiLinear(0, F(rng.randint(1, 6), 4))))
    return normalize(rng.randint(0, 5), comps)


def _outcome(f, L):
    try:
        return f(L)
    except ComputationLimit:
        return ComputationLimit


def test_make_lattice_matches_orbit_walk():
    rng = random.Random(41)
    for count in (1, 2, 16, 17, 4096, 4097):
        for k in range(3 if count >= 4096 else 12):
            q0 = F(0) if k == 0 else F(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 6))
            base = PiLinear(q0, F(rng.randint(-30, 30), rng.randint(1, 9)))
            log_mod = F(rng.randint(-4, 4), rng.randint(1, 4))
            step = F(2, count)
            got = make_lattice(log_mod, base, step)
            assert got == _make_lattice_by_orbit(log_mod, base, step), (base, count)
            assert isinstance(got, IsolatedPoint) == (count == 1)


def _lattice_points_in_interval_filtered(lat, lo, hi):
    """The orbit points with angles in [lo, hi], each j tested against both ends."""
    step_pl = PiLinear(0, lat.step)
    base_pl = PiLinear(lat.base.q0, lat.base.q1)
    jmin = -floor_ratio(base_pl - lo, step_pl)
    jmax = floor_ratio(hi - base_pl, step_pl)
    return [
        lat.member(j)
        for j in range(jmin - 2, jmax + 3)
        if lo <= PiLinear(lat.base.q0, lat.base.q1 + j * lat.step) <= hi
    ]


def test_lattice_points_in_interval_matches_filtered_range():
    rng = random.Random(43)
    tiny = PiLinear(F(1, 10**30), 0)
    cases = 0
    for count in (1, 2, 3, 8, 24, 64):
        step = F(2, count)
        for k in range(25):
            q0 = F(0) if k % 5 == 0 else F(rng.choice((-7, -1, 1, 3)), rng.randint(1, 9))
            lat = CircleLattice(F(rng.randint(-3, 3), 4), PiLinear(q0, step * F(rng.randint(0, 5), 6)), step)
            def orbit_angle(j):
                return PiLinear(q0, lat.base.q1 + j * step)
            j0 = rng.randint(-2 * count, 2 * count)
            j1 = j0 + rng.randint(0, count + 1)
            # ends on orbit points, just beside them, and at generic angles
            los = [orbit_angle(j0), orbit_angle(j0) - tiny, orbit_angle(j0) + tiny,
                   PiLinear(F(rng.randint(-9, 9), 5), F(rng.randint(-12, 12), 4))]
            his = [orbit_angle(j1), orbit_angle(j1) - tiny, orbit_angle(j1) + tiny,
                   PiLinear(F(rng.randint(-9, 9), 5), F(rng.randint(-12, 12), 4))]
            for lo in los:
                for hi in his:
                    if compare(lo, hi) > 0:
                        continue
                    got = _lattice_points_in_interval(lat, lo, hi)
                    assert got == _lattice_points_in_interval_filtered(lat, lo, hi), (lat, lo, hi)
                    cases += 1
    assert cases > 1000


def test_antipodal_set_matches_all_pairs():
    levels = []
    for nseq in ("2j", "3j+1"):
        for J in (4, 9, 14):
            Z = SpectrumSet((PrimeFamily(nseq, J),))
            levels += [level_set(Z, n) for n in range(0, 9)]
    rng = random.Random(2024)
    levels += [_random_mixed_level(rng) for _ in range(150)]
    for _ in range(60):
        Z = random_spectrum(rng)
        levels += [_eventual_image(Z, n, K) for n in (0, 1, 3) for K in (1, 2)]
    nonempty = 0
    for L in levels:
        got = _outcome(antipodal_set, L)
        assert got == _outcome(_antipodal_all_pairs, L), L
        nonempty += got is not ComputationLimit and not got.is_empty()
    assert nonempty > 100


def test_point_membership_matches_value_comparison():
    rng = random.Random(8)
    for _ in range(60):
        L = _random_mixed_level(rng)
        pts = [c.point for c in L.components if isinstance(c, IsolatedPoint)]
        probes = pts + [antipode_component(IsolatedPoint(p)).point for p in pts]
        for p in pts:
            single = LevelSet(L.level, (IsolatedPoint(p),))
            for q in probes:
                assert membership(single, q) == _same_point(p, q)


def test_enumerate_points_prefix_matches_full_enumeration(roots2k, primefamily):
    rng = random.Random(17)
    levels = [level_set(roots2k, n) for n in (0, 3, 6, 12, 13)]
    levels += [level_set(primefamily, n) for n in (0, 2, 5)]
    levels += [level_set(random_spectrum(rng), n) for _ in range(40) for n in (0, 2)]
    levels += [_random_mixed_level(rng) for _ in range(40)]
    nones = 0
    for L in levels:
        full = _enumerate_all(L)
        nones += full is None
        assert enumerate_points(L) == full
        for limit in (1, 2, 8, 100):
            want = None if full is None else full[:limit]
            assert enumerate_points(L, limit) == want, (L, limit)
    assert 0 < nones < len(levels)
