import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicspec import levels
from dyadicspec.classify import ClassifyParams, classify
from dyadicspec.cli import report_to_dict
from dyadicspec.exactnum import EQUAL, PI, PiLinear, _mk, _rat_gcd, compare, floor_ratio, reduce_mod_2pi
from dyadicspec.levels import (
    ENUM_LIMIT,
    Component,
    ComputationLimit,
    LevelCache,
    LevelPoint,
    LevelSet,
    Interval,
    Orbit,
    _lattice_count,
    _log_cmp,
    _log_key,
    _log_scaled,
    _log_times,
    _log_within,
    _map_angles,
    _orbit_angles_in_interval,
    _orbit_contains,
    _orbit_intersection,
    _rat_hash,
    _scaled_point,
    antipodal_set,
    antipode_component,
    circle_section,
    component_intersection,
    component_sup_candidates,
    enumerate_points,
    level_set,
    level_view,
    make_component,
    make_lattice,
    membership,
    normalize,
    power_component,
    power_levelset,
    sample_points,
    sup_abs_one_minus,
)
from dyadicspec.spectrum import (
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SpectrumSet,
    _prime_level_angles,
    image_closedness,
    section_antipode_condition,
    section_representatives,
)

from dyadicspec.levels import _orbit as _raw_orbit
from dyadicspec.threads import step_point

from conftest import random_spectrum


def _m(x: F) -> tuple[int, int]:
    """A rational log-modulus as the reduced (numerator, denominator) pair
    the level layer holds."""
    return x.numerator, x.denominator


# the component kinds, built directly and named by their print labels
def _isolated(p: LevelPoint) -> Component:
    return Component(p.log_mod, p.log_mod, p.angle)


def _arc(log_mod, lo, hi) -> Component:
    return Component(log_mod, log_mod, Interval(lo, hi))


def _circle(log_mod) -> Component:
    return Component(log_mod, log_mod, None)


def _lattice(log_mod, base, step) -> Component:
    return Component(log_mod, log_mod, Orbit(base, step))


def _sector(lo_log, hi_log, lo, hi) -> Component:
    return Component(lo_log, hi_log, Interval(lo, hi))


def _annulus(lo_log, hi_log) -> Component:
    return Component(lo_log, hi_log, None)


# the old class names, read off the two factors: one circle or a range, angle kind
_KINDS = {
    (True, PiLinear): "IsolatedPoint",
    (True, Interval): "Arc",
    (True, type(None)): "FullCircle",
    (True, Orbit): "CircleLattice",
    (False, Interval): "Sector",
    (False, type(None)): "Annulus",
}


def _kind(c: Component) -> str:
    return _KINDS[c.lo_log == c.hi_log, type(c.angles)]


def _point(c: Component) -> LevelPoint:
    """An isolated point's point."""
    return LevelPoint(c.lo_log, c.angles)


def _member(lat: Component, j: int) -> LevelPoint:
    """The orbit point base + j*step*pi, its angle reduced to (-pi, pi]."""
    return LevelPoint(lat.lo_log, reduce_mod_2pi(lat.angles.angle(j)))


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
    assert L.components == (_circle(F(0)),)

    L = level_set(rectangle, 0)
    assert L.components == (_annulus(F(-1), F(0)),)
    L2 = level_set(rectangle, 2)
    (sec,) = L2.components
    assert _kind(sec) == "Sector"
    assert (sec.lo_log, sec.hi_log) == (F(-1, 4), F(0))
    assert sec.angles.lo == PiLinear(0, F(-1, 4)) and sec.angles.hi == PiLinear(0, F(1, 4))


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
    assert _kind(arc) == "Arc"
    assert arc.angles.lo == PiLinear(0, F(-1, 2)) and arc.angles.hi == PiLinear(0, F(1, 2))
    cs = circle_section(roots2k, 0, F(0))
    assert [p.angle for p in enumerate_points(cs)] == [PiLinear(0, 0)]
    assert circle_section(rectangle, 3, F(1)).is_empty()


def test_eventual_image_examples(solenoid, roots2k, rectangle):
    assert _eventual_image(solenoid, 0, 5).components == (_circle(F(0)),)
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


def test_sup_matches_dense_sampling(rectangle, roots2k, solenoid):
    for Z, n in ((rectangle, 2), (rectangle, 5), (roots2k, 3), (solenoid, 1)):
        L = level_set(Z, n)
        res = sup_abs_one_minus(L)
        best = 0.0
        for re_, im_ in sample_points(L, per_component=512):
            best = max(best, (1 - re_) ** 2 + im_**2)
        assert best <= float(res.sq_hi) + 1e-9
        assert float(res.sq_lo) <= best + 0.05  # candidates dominate samples


def test_power_one_and_the_cached_sup_change_nothing(roots2k, solenoid, rectangle, primefamily):
    # the quasi-uniform cover's two shortcuts: z -> z^1 maps a level set to
    # itself, and the cache's sup is the sup of the level set it holds
    # (normalizing never changes a circle's largest |angle|, so the view's
    # widest candidates are the level's, digit for digit)
    rng = random.Random(2001)
    for Z in (roots2k, solenoid, rectangle, primefamily, *(random_spectrum(rng) for _ in range(120))):
        cache = LevelCache(Z)
        for n in range(8):
            L = level_set(Z, n)
            assert power_levelset(L, 1) == L, (Z, n)
            for digits in (3, 15, 30):
                assert cache.sup(n, digits) == sup_abs_one_minus(L, digits), (Z, n, digits)
            assert cache.sup(n) is cache.sup(n, 30)


@pytest.fixture(scope="module")
def oracle_spectra(roots2k, solenoid, rectangle, primefamily):
    rng = random.Random(2601)
    return (roots2k, solenoid, rectangle, primefamily, *(random_spectrum(rng) for _ in range(300)))


# the `enclosures` bench spectra: wide rects, and far points at the angles
# whose cosines are irrational, on both sides of the real axis
ENCLOSURES_SPECTRA = (
    *(SpectrumSet((Rect(F(-R), F(0), PiLinear(0, -1), PiLinear(0, 1)),)) for R in (100, 102, 201, 303, 404)),
    *(
        SpectrumSet((Point(F(-re), PiLinear(0, sign * q)),))
        for re in (150, 303)
        for q in (F(1, 5), F(2, 7), F(3, 8), F(4, 9), F(5, 11))
        for sign in (1, -1)
    ),
)


def _all_candidate_sup(L, digits):
    """The enclosure of every sup candidate of every component."""
    points = [p for c in L.components for p in component_sup_candidates(c)]
    return levels._sup_result(*levels._sup_ints(points, digits))


def test_cached_sup_matches_the_all_candidate_sup(oracle_spectra):
    # the oracle encloses every candidate of the normalized level; the cache
    # only one with each circle's largest |angle|.  Two candidates on one
    # circle whose values lie within 10^-digits may move sq_lo or sq_hi, by
    # at most that
    cases = [(Z, range(9)) for Z in oracle_spectra] + [(Z, range(17)) for Z in ENCLOSURES_SPECTRA]
    for Z, depths in cases:
        cache = LevelCache(Z)
        for n in (*depths, 30):
            L = level_set(Z, n)
            for digits in (15, 30, 40):
                got, want = cache.sup(n, digits), _all_candidate_sup(L, digits)
                if got != want:
                    tol = F(1, 10**digits)
                    assert got.exact_sq == want.exact_sq, (Z, n, digits)
                    assert abs(got.sq_lo - want.sq_lo) <= tol and abs(got.sq_hi - want.sq_hi) <= tol, (Z, n, digits)
                    assert max(got.sq_lo, want.sq_lo) <= min(got.sq_hi, want.sq_hi), (Z, n, digits)
            assert cache.sup(n) is cache.sup(n, 30)


def test_cached_membership_matches_membership(oracle_spectra):
    # every sup candidate, its antipode and both square roots, against the
    # normalized levels n and n + 1
    for Z in oracle_spectra:
        cache = LevelCache(Z)
        for n in range(9):
            L, below = level_set(Z, n), level_set(Z, n + 1)
            for c in L.components:
                for q in component_sup_candidates(c):
                    anti = LevelPoint(q.log_mod, reduce_mod_2pi(q.angle + PI))
                    for p in (q, anti, step_point(q, 0), step_point(q, 1)):
                        assert cache.contains(n, p) == membership(L, p), (Z, n, p)
                        assert cache.contains(n + 1, p) == membership(below, p), (Z, n + 1, p)


def test_point_level_antipode_is_the_first_antipodal_point(oracle_spectra):
    seen = 0
    for Z in oracle_spectra:
        for n in range(9):
            view = level_view(Z, n)
            if not all(_kind(c) == "IsolatedPoint" for c in view):
                continue
            seen += 1
            A = antipodal_set(level_set(Z, n))
            want = enumerate_points(A, 1)[0] if not A.is_empty() else None
            assert LevelCache(Z).antipodal_sample(n) == want, (Z, n)
    assert seen >= 300


def test_cached_antipodes_match_the_normalized_level(oracle_spectra):
    # the cache pairs the view's isolated points and meets them with the
    # rest of the view normalized; the oracle normalizes the whole level
    nonempty = 0
    for Z in oracle_spectra:
        cache = LevelCache(Z)
        for n in range(9):
            got = _outcome(cache.antipodes, n)
            assert got == _outcome(lambda n: antipodal_set(level_set(Z, n)), n), (Z, n)
            nonempty += got is not ComputationLimit and not got.is_empty()
    assert nonempty > 1000


@pytest.mark.parametrize(
    "text",
    [
        "spectrum primefamily nseq=2j J=40\n",
        "".join(f"spectrum point re=1/2 im={a}\n" for a in ("0", "1/3*pi", "1*pi", "-1/2*pi", "5/4*pi", "1+1/2*pi")),
    ],
)
def test_classify_normalizes_no_level_of_points(text, monkeypatch):
    # no whole level is normalized: the antipodes of a level of isolated
    # points normalize only its empty rest and the antipodal set itself
    from dyadicspec import levels
    from dyadicspec.classify import classify
    from dyadicspec.cli import parse_config

    calls, inside, levels_read = [], [], []
    normalize, antipodal_set = levels.normalize, levels.antipodal_set

    def traced_normalize(n, comps):
        comps = list(comps)
        calls.append("antipodal output" if inside else comps)
        return normalize(n, comps)

    def traced_antipodal_set(L):
        inside.append(L)
        try:
            return antipodal_set(L)
        finally:
            inside.pop()

    monkeypatch.setattr(levels, "normalize", traced_normalize)
    monkeypatch.setattr(levels, "antipodal_set", traced_antipodal_set)
    monkeypatch.setattr(LevelCache, "level", lambda self, n: levels_read.append(n))
    cfg = parse_config(text)
    classify(cfg.spectrum, cfg.params)
    assert levels_read == []
    assert calls == [[], "antipodal output"] * (len(calls) // 2)


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
    a1 = _arc(F(0), PiLinear(0, F(3, 4)), PiLinear(0, F(3, 2)))
    a2 = _arc(F(0), PiLinear(0, F(-1, 2)), PiLinear(0, F(0)))
    L = normalize(0, [a1, a2])
    (arc,) = L.components
    assert _kind(arc) == "Arc"
    assert compare(arc.angles.hi - arc.angles.lo, PiLinear(0, F(5, 4))) == 0
    # and a full cover collapses to the circle
    b1 = _arc(F(0), PiLinear(0, F(1, 2)), PiLinear(0, F(3, 2)))
    b2 = _arc(F(0), PiLinear(0, F(-1, 2)), PiLinear(0, F(1, 2)))
    assert normalize(0, [b1, b2]).components == (_circle(F(0)),)


def test_wide_segment_becomes_full_circle():
    from dyadicspec.spectrum import SpectrumSet, VSegment

    Z = SpectrumSet((VSegment(F(1), PiLinear(0, -4), PiLinear(0, 4)),))
    assert level_set(Z, 0).components == (_circle(F(1)),)
    assert level_set(Z, 1).components == (_circle(F(1, 2)),)  # span 4 pi / 2
    (arc,) = level_set(Z, 2).components
    assert _kind(arc) == "FullCircle"  # span exactly 2 pi
    (arc3,) = level_set(Z, 3).components
    assert _kind(arc3) == "Arc"


def test_lattice_intersection_and_antipodes():
    lat = _lattice(F(0), PiLinear(0, 0), F(1, 16))  # 32nd roots of unity
    rot = _lattice(F(0), PiLinear(0, F(1, 32)), F(1, 16))
    assert component_intersection(lat, rot) == []
    assert not antipodal_set(LevelSet(5, (lat,))).is_empty()
    odd = _lattice(F(0), PiLinear(0, F(1, 3)), F(2, 3))  # 3 points
    assert antipodal_set(LevelSet(1, (odd,))).is_empty()


# ---------------------------------------------------------------------------
# differential tests: the direct level-set paths against enumeration oracles


def _orbit(lat: Component) -> list[LevelPoint]:
    """Every orbit point, each reduced on its own."""
    return [
        LevelPoint(lat.lo_log, reduce_mod_2pi(PiLinear(lat.angles.base.q0, lat.angles.base.q1 + j * lat.angles.step)))
        for j in range(lat.angles.count)
    ]


def _make_lattice_by_orbit(log_mod, base, step):
    """make_lattice that walks the orbit to see whether it is one point."""
    base = PiLinear(base.q0, base.q1 % step)
    lat = _lattice(log_mod, base, step)
    if lat.angles.count <= ENUM_LIMIT:
        pts = _orbit(lat)
        if len(pts) == 1:
            return _isolated(pts[0])
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
            if _kind(a) == "IsolatedPoint" and _kind(b) == "IsolatedPoint":
                out.extend([a] if _same_point(_point(a), _point(b)) else [])
            else:
                out.extend(component_intersection(a, b))
    return normalize(L.level, out)


def _enumerate_all(L: LevelSet):
    """enumerate_points without a limit, walking every lattice orbit."""
    pts = []
    for c in L.components:
        if _kind(c) == "IsolatedPoint":
            pts.append(_point(c))
        elif _kind(c) == "CircleLattice" and c.angles.count <= ENUM_LIMIT:
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
            comps.append(_isolated(LevelPoint(m, reduce_mod_2pi(angle))))
        if kind == "pair":
            comps.append(_isolated(LevelPoint(m, reduce_mod_2pi(angle + PiLinear(0, 1)))))
        if kind == "lattice":
            # counts of at most 16 normalize into points, larger ones stay lattices
            comps.append(make_lattice(_m(m), angle, rng.choice((1, 3, 4, 32, 64))))
        if kind == "arc":
            span = PiLinear(0, F(rng.randint(1, 6), 4))
            comps.append(make_component(_m(m), _m(m), Interval(angle, angle + span)))
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
            got = make_lattice(_m(log_mod), base, count)
            assert got == _make_lattice_by_orbit(log_mod, base, step), (base, count)
            assert got == fraction_make_lattice(log_mod, base, step), (base, count)
            assert (_kind(got) == "IsolatedPoint") == (count == 1)


def _lattice_points_in_interval_filtered(lat, lo, hi):
    """The orbit points with angles in [lo, hi], each j tested against both ends."""
    step_pl = PiLinear(0, lat.angles.step)
    base_pl = PiLinear(lat.angles.base.q0, lat.angles.base.q1)
    jmin = -floor_ratio(base_pl - lo, step_pl)
    jmax = floor_ratio(hi - base_pl, step_pl)
    return [
        _member(lat, j)
        for j in range(jmin - 2, jmax + 3)
        if lo <= PiLinear(lat.angles.base.q0, lat.angles.base.q1 + j * lat.angles.step) <= hi
    ]


def test_lattice_points_in_interval_matches_filtered_range():
    rng = random.Random(43)
    tiny = PiLinear(F(1, 10**30), 0)
    cases = 0
    for count in (1, 2, 3, 8, 24, 64):
        step = F(2, count)
        for k in range(25):
            q0 = F(0) if k % 5 == 0 else F(rng.choice((-7, -1, 1, 3)), rng.randint(1, 9))
            lat = _lattice(F(rng.randint(-3, 3), 4), PiLinear(q0, step * F(rng.randint(0, 5), 6)), step)
            def orbit_angle(j):
                return PiLinear(q0, lat.angles.base.q1 + j * step)
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
                    got = [
                        LevelPoint(lat.lo_log, reduce_mod_2pi(a))
                        for a in _orbit_angles_in_interval(lat.angles, lo, hi)
                    ]
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
        pts = [_point(c) for c in L.components if _kind(c) == "IsolatedPoint"]
        probes = pts + [_point(antipode_component(_isolated(p))) for p in pts]
        for p in pts:
            single = LevelSet(L.level, (_isolated(p),))
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


# ---------------------------------------------------------------------------
# differential test: the radial x angle grammar against the per-kind dispatch
# it replaced, kept here as the oracle


def _old_anchor(lo, hi):
    span = hi - lo
    if span - PiLinear(0, 2) >= PiLinear(0, 0):
        return None
    new_lo = reduce_mod_2pi(lo)
    return new_lo, hi + (new_lo - lo)


def _old_make_arc(log_mod, lo, hi):
    anchored = _old_anchor(lo, hi)
    if anchored is None:
        return _circle(log_mod)
    lo, hi = anchored
    if lo == hi:
        return _isolated(LevelPoint(log_mod, lo))
    return _arc(log_mod, lo, hi)


def _old_make_sector(lo_log, hi_log, lo, hi):
    if lo_log == hi_log:
        return _old_make_arc(lo_log, lo, hi)
    anchored = _old_anchor(lo, hi)
    if anchored is None:
        return _annulus(lo_log, hi_log)
    return _sector(lo_log, hi_log, anchored[0], anchored[1])


def _old_angle_in_interval(angle, lo, hi):
    for cand in (angle, angle + PiLinear(0, 2)):
        if lo <= cand and cand <= hi:
            return True
    return False


def _old_contains_angle(lat, angle):
    if angle.q0 != lat.angles.base.q0:
        return False
    return ((angle.q1 - lat.angles.base.q1) / lat.angles.step).denominator == 1


def _old_component_contains(c, p):
    if _kind(c) == "IsolatedPoint":
        return _point(c) == p
    if _kind(c) == "Arc":
        return c.lo_log == p.log_mod and _old_angle_in_interval(p.angle, c.angles.lo, c.angles.hi)
    if _kind(c) == "FullCircle":
        return c.lo_log == p.log_mod
    if _kind(c) == "CircleLattice":
        return c.lo_log == p.log_mod and _old_contains_angle(c, p.angle)
    if _kind(c) == "Sector":
        if not (c.lo_log <= p.log_mod <= c.hi_log):
            return False
        return _old_angle_in_interval(p.angle, c.angles.lo, c.angles.hi)
    return c.lo_log <= p.log_mod <= c.hi_log


def _old_antipode_component(c):
    half_turn = PiLinear(0, 1)
    if _kind(c) == "IsolatedPoint":
        return _isolated(LevelPoint(_point(c).log_mod, reduce_mod_2pi(_point(c).angle + half_turn)))
    if _kind(c) == "Arc":
        return _old_make_arc(c.lo_log, c.angles.lo + half_turn, c.angles.hi + half_turn)
    if _kind(c) == "CircleLattice":
        return _lattice(c.lo_log, PiLinear(c.angles.base.q0, (c.angles.base.q1 + 1) % c.angles.step), c.angles.step)
    if _kind(c) == "Sector":
        return _old_make_sector(c.lo_log, c.hi_log, c.angles.lo + half_turn, c.angles.hi + half_turn)
    return c  # full circles and annuli


def _old_power_component(c, s):
    if _kind(c) == "IsolatedPoint":
        p = _point(c)
        return _isolated(LevelPoint(s * p.log_mod, reduce_mod_2pi(p.angle.scaled(s))))
    if _kind(c) == "Arc":
        return _old_make_arc(s * c.lo_log, c.angles.lo.scaled(s), c.angles.hi.scaled(s))
    if _kind(c) == "FullCircle":
        return _circle(s * c.lo_log)
    if _kind(c) == "CircleLattice":
        return fraction_make_lattice(s * c.lo_log, c.angles.base.scaled(s), _rat_gcd((s * c.angles.step, F(2))))
    if _kind(c) == "Sector":
        return _old_make_sector(s * c.lo_log, s * c.hi_log, c.angles.lo.scaled(s), c.angles.hi.scaled(s))
    return _annulus(s * c.lo_log, s * c.hi_log)


def _old_sup_candidates(c):
    half_turn = PiLinear(0, 1)
    if _kind(c) == "IsolatedPoint":
        return [_point(c)]
    if _kind(c) == "Arc":
        cands = [
            LevelPoint(c.lo_log, reduce_mod_2pi(c.angles.lo)),
            LevelPoint(c.lo_log, reduce_mod_2pi(c.angles.hi)),
        ]
        if _old_angle_in_interval(half_turn, c.angles.lo, c.angles.hi):
            cands.append(LevelPoint(c.lo_log, half_turn))
        return cands
    if _kind(c) == "FullCircle":
        return [LevelPoint(c.lo_log, half_turn)]
    if _kind(c) == "CircleLattice":
        target = PiLinear(-c.angles.base.q0, 1 - c.angles.base.q1)
        j0 = floor_ratio(target, PiLinear(0, c.angles.step))
        return [_member(c, j) for j in (j0 - 1, j0, j0 + 1)]
    if _kind(c) == "Sector":
        out = []
        for m in (c.lo_log, c.hi_log):
            out.append(LevelPoint(m, reduce_mod_2pi(c.angles.lo)))
            out.append(LevelPoint(m, reduce_mod_2pi(c.angles.hi)))
            if _old_angle_in_interval(half_turn, c.angles.lo, c.angles.hi):
                out.append(LevelPoint(m, half_turn))
        return out
    return [LevelPoint(c.lo_log, half_turn), LevelPoint(c.hi_log, half_turn)]


def _old_interval_intersections(lo1, hi1, lo2, hi2):
    out = []
    for shift in (-2, 0, 2):
        a = lo2 + PiLinear(0, shift)
        b = hi2 + PiLinear(0, shift)
        lo = a if compare(a, lo1) > 0 else lo1
        hi = b if compare(b, hi1) < 0 else hi1
        if compare(lo, hi) <= 0:
            out.append((lo, hi))
    return out


def _old_lattice_points_in_interval(lat, lo, hi):
    step_pl = PiLinear(0, lat.angles.step)
    jmin = -floor_ratio(lat.angles.base - lo, step_pl)
    jmax = floor_ratio(hi - lat.angles.base, step_pl)
    return [_member(lat, j) for j in range(jmin, jmax + 1)]


def _old_lattice_intersection(a, b):
    if a.lo_log != b.lo_log or a.angles.base.q0 != b.angles.base.q0:
        return []
    g = _rat_gcd((a.angles.step, b.angles.step))
    if ((b.angles.base.q1 - a.angles.base.q1) / g).denominator != 1:
        return []
    step = a.angles.step * b.angles.step / g
    den = math.lcm(
        a.angles.step.denominator, b.angles.step.denominator, a.angles.base.q1.denominator, b.angles.base.q1.denominator
    )
    G1, G2 = int(a.angles.step * den), int(b.angles.step * den)
    B1, B2 = int(a.angles.base.q1 * den), int(b.angles.base.q1 * den)
    g12 = math.gcd(G1, G2)
    u0 = ((B2 - B1) // g12 * pow(G1 // g12, -1, G2 // g12)) % (G2 // g12)
    return [fraction_make_lattice(a.lo_log, PiLinear(a.angles.base.q0, F(B1 + G1 * u0, den) % step), step)]


_OLD_RANK = {"IsolatedPoint": 0, "Arc": 1, "FullCircle": 2, "CircleLattice": 3, "Sector": 4, "Annulus": 5}


def _old_component_intersection(a, b):
    if _OLD_RANK[_kind(a)] > _OLD_RANK[_kind(b)]:
        a, b = b, a
    if _kind(a) == "IsolatedPoint":
        return [a] if _old_component_contains(b, _point(a)) else []
    if _kind(a) == "Arc":
        if _kind(b) == "Arc":
            if a.lo_log != b.lo_log:
                return []
            return [
                _old_make_arc(a.lo_log, lo, hi)
                for lo, hi in _old_interval_intersections(a.angles.lo, a.angles.hi, b.angles.lo, b.angles.hi)
            ]
        if _kind(b) == "FullCircle":
            return [a] if a.lo_log == b.lo_log else []
        if _kind(b) == "CircleLattice":
            if a.lo_log != b.lo_log:
                return []
            return [_isolated(p) for p in _old_lattice_points_in_interval(b, a.angles.lo, a.angles.hi)]
        if _kind(b) == "Sector":
            if not (b.lo_log <= a.lo_log <= b.hi_log):
                return []
            return [
                _old_make_arc(a.lo_log, lo, hi)
                for lo, hi in _old_interval_intersections(a.angles.lo, a.angles.hi, b.angles.lo, b.angles.hi)
            ]
        return [a] if b.lo_log <= a.lo_log <= b.hi_log else []
    if _kind(a) == "FullCircle":
        if _kind(b) == "FullCircle":
            return [a] if a.lo_log == b.lo_log else []
        if _kind(b) == "CircleLattice":
            return [b] if a.lo_log == b.lo_log else []
        if _kind(b) == "Sector":
            if not (b.lo_log <= a.lo_log <= b.hi_log):
                return []
            return [_old_make_arc(a.lo_log, b.angles.lo, b.angles.hi)]
        return [a] if b.lo_log <= a.lo_log <= b.hi_log else []
    if _kind(a) == "CircleLattice":
        if _kind(b) == "CircleLattice":
            return _old_lattice_intersection(a, b)
        if _kind(b) == "Sector":
            if not (b.lo_log <= a.lo_log <= b.hi_log):
                return []
            return [_isolated(p) for p in _old_lattice_points_in_interval(a, b.angles.lo, b.angles.hi)]
        return [a] if b.lo_log <= a.lo_log <= b.hi_log else []
    lo_log, hi_log = max(a.lo_log, b.lo_log), min(a.hi_log, b.hi_log)
    if lo_log > hi_log:
        return []
    if _kind(a) == "Sector":
        if _kind(b) == "Sector":
            return [
                _old_make_sector(lo_log, hi_log, lo, hi)
                for lo, hi in _old_interval_intersections(a.angles.lo, a.angles.hi, b.angles.lo, b.angles.hi)
            ]
        return [_old_make_sector(lo_log, hi_log, a.angles.lo, a.angles.hi)]
    return [_annulus(lo_log, hi_log)]


_RADII = [F(k, 2) for k in range(-2, 3)]
_ANGLE_OFFSETS = (F(0), F(0), F(0), F(1, 3))
_LATTICE_COUNTS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)  # divisors in common


def _random_angle(rng):
    return PiLinear(rng.choice(_ANGLE_OFFSETS), F(rng.randint(-16, 16), 8))


def _random_component(rng, kind):
    """A canonical component of one kind.  Radii and radial ranges come from a
    short grid, so ranges overlap, touch and miss each other."""
    lo_log, hi_log = sorted(rng.sample(_RADII, 2))
    m = rng.choice(_RADII)
    lo = _random_angle(rng)
    hi = lo + PiLinear(0, F(rng.randint(1, 15), 8))  # span below 2*pi
    if kind == "IsolatedPoint":
        # a coarse angle grid, so that points meet points and lattice members
        angle = PiLinear(rng.choice(_ANGLE_OFFSETS), F(rng.randint(-4, 4), 4))
        return _isolated(LevelPoint(m, reduce_mod_2pi(angle)))
    if kind == "Arc":
        return _old_make_arc(m, lo, hi)
    if kind == "FullCircle":
        return _circle(m)
    if kind == "CircleLattice":
        return make_lattice(_m(m), lo, rng.choice(_LATTICE_COUNTS))
    if kind == "Sector":
        return _old_make_sector(lo_log, hi_log, lo, hi)
    return _annulus(lo_log, hi_log)


def test_product_grammar_matches_per_kind_dispatch():
    rng = random.Random(77)
    kinds = list(_OLD_RANK)
    nonempty = {}
    for i, ka in enumerate(kinds):
        for kb in kinds[i:]:
            for _ in range(480):
                a, b = _random_component(rng, ka), _random_component(rng, kb)
                assert (_kind(a), _kind(b)) == (ka, kb)
                pair = (ka, kb)
                if rng.random() < 0.5:
                    a, b = b, a
                got = normalize(0, component_intersection(a, b))
                assert got == normalize(0, _old_component_intersection(a, b)), (a, b)
                assert got == normalize(0, component_intersection(b, a)), (a, b)
                nonempty[pair] = nonempty.get(pair, 0) + (not got.is_empty())
                for p in _old_sup_candidates(b):
                    assert membership(LevelSet(0, (a,)), p) == _old_component_contains(a, p), (a, p)
        a = _random_component(rng, ka)
        for _ in range(40):
            a = _random_component(rng, ka)
            assert antipode_component(a) == _old_antipode_component(a), a
            for s in (2, 3):
                assert power_component(a, s) == _old_power_component(a, s), (a, s)
            assert component_sup_candidates(a) == _old_sup_candidates(a), a
    # every one of the 21 kind pairings is met, and not only by misses
    assert len(nonempty) == 21 and min(nonempty.values()) > 0, nonempty


def test_touching_annuli_meet_in_a_full_circle():
    m = F(0)
    assert component_intersection(_annulus(F(-1), m), _annulus(m, F(1, 2))) == [_circle(m)]
    # as two sectors touching at one radius meet in an arc there
    (arc,) = component_intersection(
        _sector(F(-1), m, PiLinear(0, F(-1, 2)), PiLinear(0, F(1, 2))),
        _sector(m, F(1), PiLinear(0, F(-1, 4)), PiLinear(0, F(1))),
    )
    assert arc == _arc(m, PiLinear(0, F(-1, 4)), PiLinear(0, F(1, 2)))


def test_normalize_orders_sectors_and_annuli():
    pi = lambda q: PiLinear(0, q)  # noqa: E731
    a = _sector(F(0), F(1), pi(F(-9, 10)), pi(F(9, 10)))
    b = _sector(F(0), F(1), pi(F(1, 2)), pi(F(23, 10)))
    # the angle intervals meet twice, so each order yields two sectors
    ab, ba = component_intersection(a, b), component_intersection(b, a)
    assert len(ab) == len(ba) == 2
    assert normalize(0, ab) == normalize(0, ba)
    comps = ab + [
        _annulus(F(0), F(1)),
        _annulus(F(-1), F(1)),
        _sector(F(-1), F(1), pi(F(1, 3)), pi(F(1, 2))),
        _sector(F(0), F(1), PiLinear(F(1, 3), 0), PiLinear(F(1, 3), F(1, 4))),
        _circle(F(1, 2)),
    ]
    want = normalize(0, comps)
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(comps)
        assert normalize(0, comps + comps[:2]) == want


# ---------------------------------------------------------------------------
# Fraction oracles: log-moduli as Fractions and orbits by their Fraction
# step, as the level layer held them before its reduced integer pairs and
# integer member counts, and Hypothesis differentials against them


def fraction_orbit_angle(base: PiLinear, step: F, j: int) -> PiLinear:
    """The member base + j*step*pi, not reduced."""
    sd = step.denominator
    return _mk(base.a * sd, base.b * sd + j * step.numerator * base.d, base.d * sd)


def fraction_make_lattice(log_mod: F, base: PiLinear, step: F) -> Component:
    """The orbit component of a step dividing 2, its base brought into [0, step)."""
    step = F(step)
    sn, sd = step.numerator, step.denominator
    if sn <= 0 or 2 * sd % sn:
        raise ValueError("lattice step must be positive and divide 2")
    base = fraction_orbit_angle(base, step, -(base.b * sd // (base.d * sn)))
    if step == 2:
        return Component(log_mod, log_mod, reduce_mod_2pi(base))
    return Component(log_mod, log_mod, Orbit(base, step))


def fraction_map_step(step: F, k: F) -> F:
    """The step of an orbit of step `step` under a -> k*a: gcd(k*step, 2)."""
    return _rat_gcd((k * step, F(2)))


def fraction_orbit_contains(base: PiLinear, step: F, angle: PiLinear) -> bool:
    d, e = angle.d, base.d
    return angle.a * e == base.a * d and (
        (angle.b * e - base.b * d) * step.denominator % (d * e * step.numerator) == 0
    )


def fraction_orbit_intersection(a_base, a_step: F, b_base, b_step: F) -> list[tuple[PiLinear, F]]:
    """(base, step) of the meet of two orbits, as the gcd of their steps gives it."""
    g = _rat_gcd((a_step, b_step))
    t = (b_base.q1 - a_base.q1) / g
    if a_base.q0 != b_base.q0 or t.denominator != 1:
        return []
    u, v = int(a_step / g), int(b_step / g)
    k = int(t) * pow(u, -1, v) % v
    return [(PiLinear(a_base.q0, a_base.q1 + k * a_step), a_step * v)]


_log_mods = st.fractions(max_denominator=10**6) | st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=7)
_counts = st.integers(1, 64) | st.sampled_from((96, 128, 4096, 16386))
_bases = st.builds(
    PiLinear,
    st.sampled_from((F(0), F(0), F(1, 3), F(-2, 7))),
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
)


@given(_log_mods, _bases, st.lists(st.integers(0, 1), min_size=200, max_size=260))
@settings(max_examples=60, deadline=None)
def test_halving_chains_match_fraction_log_moduli(log_mod, angle, bits):
    p = LevelPoint(log_mod, reduce_mod_2pi(angle))
    for k, bit in enumerate(bits, 1):
        p = step_point(p, bit)
        want = log_mod / 2**k
        assert p.m == _m(want) and p.log_mod == want
        assert p == LevelPoint(want, p.angle) and hash(p) == hash((want, p.angle))
    assert _log_scaled(log_mod.numerator, log_mod.denominator, len(bits)) == _m(log_mod / 2 ** len(bits))


@given(_log_mods, _log_mods, _bases, st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_log_pairs_match_fractions(x, y, angle, s):
    a = reduce_mod_2pi(angle)
    cmp = _log_cmp(_m(x), _m(y))
    assert (cmp > 0) - (cmp < 0) == (x > y) - (x < y)
    assert sorted([_m(x), _m(y)], key=_log_key) == [_m(v) for v in sorted([x, y])]
    assert _log_times(_m(x), s) == _m(x * s)
    assert _rat_hash(_m(x)) == hash(x)
    lo, hi = sorted([x, y])
    for m in (x, y, (x + y) / 2, x - 1, y + 1):
        assert _log_within(_m(lo), _m(hi), _m(m)) == (lo <= m <= hi)
    # equality, hash and canonical form: the pair of the reduced Fraction
    p, q = LevelPoint(x, a), LevelPoint(y, a)
    assert p.m == _m(x) and p.log_mod == x and type(p.log_mod) is F
    assert (p == q) == (x == y) and hash(p) == hash((x, a))
    c = Component(lo, hi, None)
    assert (c.lo_log, c.hi_log) == (lo, hi) and (c.lo_m is c.hi_m) == (lo == hi)
    assert c == Component(F(lo), F(hi), None) and hash(c) == hash((lo, hi, None))
    assert make_component(_m(lo), _m(hi), None) == c


@given(_bases, _counts, st.integers(0, 40), st.integers(1, 12), _bases)
@settings(max_examples=300, deadline=None)
def test_orbit_counts_match_fraction_steps(base, count, n, s, shift):
    step = F(2, count)
    orbit = _raw_orbit(base, count)
    assert orbit == Orbit(base, step) and orbit.step == step and hash(orbit) == hash((base, step))
    for j in (-3, 0, 1, count + 2):
        assert orbit.angle(j) == fraction_orbit_angle(base, step, j)
    for k in (F(1, 2**n), F(s)):
        got = _map_angles(orbit, k, shift if s % 2 else None)
        assert got.step == fraction_map_step(step, k), (count, k)
        assert got.base == (base.scaled(k) if s % 2 == 0 else base.scaled(k) + shift)
    # a lattice of step q*pi at level n: the raw step scaled, then gcd'd with 2
    q = F(count, s)
    assert F(2, _lattice_count(PiLinear(0, q), n)) == _rat_gcd((q / 2**n, F(2)))


@given(_bases, _counts, _bases, _counts, _log_mods)
@settings(max_examples=300, deadline=None)
def test_orbit_helpers_match_fraction_steps(a_base, M, b_base, N, log_mod):
    sa, sb = F(2, M), F(2, N)
    # members of either orbit, and angles beside them
    for angle in (a_base, b_base, fraction_orbit_angle(a_base, sa, 3), b_base + PiLinear(0, F(1, 3))):
        a = reduce_mod_2pi(angle)
        assert _orbit_contains(b_base, N, a) == fraction_orbit_contains(b_base, sb, a)
    a, b = _raw_orbit(a_base, M), _raw_orbit(b_base, N)
    got = [(o.base, o.step) for o in _orbit_intersection(a, b)]
    assert got == fraction_orbit_intersection(a_base, sa, b_base, sb)
    # the same q0 on both sides, so that the orbits can meet
    b_same = PiLinear(a_base.q0, b_base.q1)
    got = [(o.base, o.step) for o in _orbit_intersection(a, _raw_orbit(b_same, N))]
    assert got == fraction_orbit_intersection(a_base, sa, b_same, sb)
    assert make_lattice(_m(log_mod), a_base, M) == fraction_make_lattice(log_mod, a_base, sa)


# ---------------------------------------------------------------------------
# counts over one fixed set of spectra, classified as the benchmark's corpus
# is (shallow levels and search) and turned into report dicts

_COUNTED_SPECTRA = [random_spectrum(random.Random(f"counted-{k}")) for k in range(40)]
_COUNTED_PARAMS = ClassifyParams(n_max=6, K=2, search_depth=12)


def _classify_counted():
    for Z in _COUNTED_SPECTRA:
        report_to_dict(classify(Z, _COUNTED_PARAMS))


def test_a_warm_pass_builds_at_most_half_the_fractions():
    _classify_counted()  # warm: the pi enclosures are cached
    new, count = F.__dict__["__new__"], 0

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new.__func__(cls, *args, **kwargs)

    F.__new__ = counting
    try:
        _classify_counted()
    finally:
        F.__new__ = new
    # with Fraction log-moduli and orbit steps in the level layer, the same
    # warm pass built 5,148 Fractions (Python 3.11)
    assert 0 < count <= 5148 // 2


def test_antipodal_set_meets_no_isolated_point(monkeypatch):
    # isolated points pair per circle, by angle: only spread components meet
    calls = []
    meet = levels.component_intersection

    def checked(a, b):
        calls.append(a.angles.__class__ is PiLinear or b.angles.__class__ is PiLinear)
        return meet(a, b)

    monkeypatch.setattr(levels, "component_intersection", checked)
    _classify_counted()
    assert calls and not any(calls)


# ---------------------------------------------------------------------------
# prime families in closed form


def _family_section_angles(fam: PrimeFamily, js, n: int) -> dict[int, set[PiLinear]]:
    """Per prime j in js: the reduced angles of its section points at level n."""
    return {j: {_scaled_point(v, n) for v in (fam.alpha(j), fam.beta(j))} for j in js}


def _family_level_angles(fam: PrimeFamily, n: int) -> dict[int, set[PiLinear]]:
    """Per prime j: the closed-form angles at level n, keyed by the denominator j*2^n."""
    out: dict[int, set[PiLinear]] = {}
    for a in fam.level_angles(n):
        assert a.a == 0 and a.d % (1 << n) == 0
        out.setdefault(a.d >> n, set()).add(a)
    return out


@pytest.mark.parametrize("nseq", ["2j", "3j+1", "j+4", "j"])
def test_family_level_angles_equal_the_scaled_section_points(nseq):
    # every prime of J = 60 at every level from 0 to n_j + 8
    fam = PrimeFamily(nseq, 60)
    primes, top = fam.primes(), max(fam.schedule) + 8
    for n in range(top + 1):
        live = [j for j in primes if n <= fam.n_of(j) + 8]
        got = _family_level_angles(fam, n)
        assert list(got) == list(primes)
        assert {j: got[j] for j in live} == _family_section_angles(fam, live, n), (nseq, n)
    # every prime of J = 200 at the levels where the form changes: the
    # lowest ones, where j*2^n passes the small primes, and n_j - 8 .. n_j + 8
    fam = PrimeFamily(nseq, 200)
    for j, m in zip(fam.primes(), fam.schedule):
        for n in {*range(9), *range(max(0, m - 8), m + 9)}:
            assert set(_prime_level_angles(j, m, n)) == _family_section_angles(fam, [j], n)[j], (nseq, j, n)


@pytest.mark.parametrize("nseq", ["2j", "3j+1", "j+4", "j"])
def test_family_level_view_is_the_section_view_without_repeats(nseq):
    # the view the section points gave, one component per point in section
    # order, with each repeated angle dropped
    for J in (1, 2, 25):
        fam = PrimeFamily(nseq, J)
        Z = SpectrumSet((fam,))
        for n in range(max(fam.schedule) + 9):
            want = dict.fromkeys(Component(F(0), F(0), _scaled_point(v, n)) for v in fam.section.values)
            assert level_view(Z, n) == list(want), (nseq, J, n)
