import math
import random
from fractions import Fraction as F

import pytest

from dyadicspec.exactnum import ZERO, PiLinear, _rat_gcd, _v2, ceil_ratio, compare, floor_ratio
from dyadicspec.spectrum import (
    ConsistencyError,
    ILattice,
    PairLevels,
    Point,
    PrimeFamily,
    Rect,
    SectionInterval,
    SectionLattice,
    SectionLine,
    SectionPoints,
    SectionSet,
    SpectrumError,
    SpectrumSet,
    VLine,
    VSegment,
    antipode_level_union,
    image_closedness,
    primes_from_3,
    real_part_range,
    section_antipode_condition,
    section_antipode_levels,
    section_representatives,
    section_set,
    vertical_section,
    _ALWAYS,
    _KIND_ORDER,
    _NEVER,
    _interval_lattice_levels,
    _interval_levels,
    _lattice_lattice_params,
    _module_levels,
    _pair_levels,
    _points_points_levels,
    _section_pair_levels,
    _valuations,
)

from conftest import random_spectrum


def test_real_part_range_examples(rectangle, solenoid, roots2k):
    assert real_part_range(rectangle) == (F(-1), F(0))
    assert real_part_range(solenoid) == (F(0), F(0))
    assert real_part_range(roots2k) == (F(0), F(0))
    with pytest.raises(SpectrumError):
        real_part_range(SpectrumSet(()))


def test_primitive_validation():
    with pytest.raises(SpectrumError):
        VSegment(F(0), PiLinear(0, 1), PiLinear(0, -1))
    with pytest.raises(SpectrumError):
        Rect(F(1), F(0), PiLinear(0, 0), PiLinear(0, 1))
    with pytest.raises(SpectrumError):
        ILattice(F(0), PiLinear(0, 0), PiLinear(0, -2))
    with pytest.raises(SpectrumError):
        PrimeFamily("2j", 0)
    with pytest.raises(SpectrumError):
        PrimeFamily("jj", 3)


def test_vertical_section_examples(roots2k, rectangle):
    s = vertical_section(roots2k, F(0))
    assert s.parts == (SectionLattice(PiLinear(0, 0), PiLinear(0, 2)),)
    s = vertical_section(rectangle, F(-1, 2))
    assert s.parts == (SectionInterval(PiLinear(0, -1), PiLinear(0, 1)),)
    assert vertical_section(rectangle, F(1)).is_empty()


def test_star_examples(roots2k, rectangle, solenoid):
    assert not section_antipode_condition(roots2k, F(0), 0)
    assert section_antipode_condition(roots2k, F(0), 1)
    assert not section_antipode_condition(rectangle, F(0), 2)
    assert section_antipode_condition(solenoid, F(0), 7)


def test_m_set_examples(roots2k, rectangle, solenoid):
    m = section_antipode_levels(roots2k, F(0), 10)
    assert sorted(m.levels) == list(range(1, 11))
    assert m.tail_all_from == 1

    m = section_antipode_levels(rectangle, F(-1, 2), 10)
    assert sorted(m.levels) == [0, 1]
    assert m.tail_all_from is None and not m.tail_extra

    m = section_antipode_levels(solenoid, F(0), 5)
    assert sorted(m.levels) == [0, 1, 2, 3, 4, 5]
    assert m.tail_all_from == 0


def test_m_set_primefamily(primefamily):
    m = section_antipode_levels(primefamily, F(0), 50)
    assert sorted(m.levels) == [6, 10, 14, 22, 26, 34, 38, 46]
    assert m.unbounded_schedule is not None
    assert m.infinite


def test_h2_examples(roots2k, rectangle, solenoid, primefamily):
    assert antipode_level_union(rectangle, 10).holds is True
    assert sorted(antipode_level_union(rectangle, 10).union_levels) == [0, 1]
    r = antipode_level_union(roots2k, 10)
    assert r.holds is False and r.witness_t == 0
    assert antipode_level_union(solenoid, 5).holds is False
    assert antipode_level_union(primefamily, 10).holds is False


def test_h1_examples(roots2k, rectangle, primefamily):
    assert image_closedness(rectangle, 0).closed
    assert image_closedness(roots2k, 3).closed
    r = image_closedness(primefamily, 4)
    assert not r.closed
    # the missing limit point is 1 = exp(i*0)
    assert (r.witnesses[0].log_mod, r.witnesses[0].angle) == (F(0), PiLinear(0, 0))
    dense = SpectrumSet((ILattice(F(0), PiLinear(0, 0), PiLinear(1, 1)),))
    r = image_closedness(dense, 2)
    assert not r.closed
    w = r.witnesses[0]
    # the named limit point really misses the orbit: with base 0 and step
    # 1 + pi at level 2, membership needs k/4 = theta and k/4 + 2m = 0
    theta = w.angle.q0
    assert w.angle.q1 == 0
    k = 4 * theta
    assert k.denominator != 1 or (k / 8).denominator != 1


# ---------------------------------------------------------------------------
# brute-force oracle for the antipode condition


def materialize(S: SectionSet, k_range: int):
    """Finite picture of a section: points (lattices truncated) + intervals."""
    pts, intervals, line = [], [], False
    for part in S.parts:
        if isinstance(part, SectionPoints):
            pts.extend(part.values)
        elif isinstance(part, SectionInterval):
            intervals.append((part.lo, part.hi))
        elif isinstance(part, SectionLattice):
            for k in range(-k_range, k_range + 1):
                pts.append(part.base + part.step.scaled(k))
        elif isinstance(part, SectionLine):
            line = True
        else:
            raise AssertionError(type(part).__name__)
    return pts, intervals, line


def brute_star(S: SectionSet, n: int, k_range: int = 48, odd_range: int = 33) -> bool:
    """Enumerative check: some odd k in [-odd_range, odd_range] has
    2^n*k*pi inside the materialized difference set."""
    pts, intervals, line = materialize(S, k_range)
    if line and S.parts:
        return True
    diffs = {(d.q0, d.q1) for u in pts for d in (u - v for v in pts)}
    for k in range(-odd_range, odd_range + 1, 2):
        target = PiLinear(0, F(k) * 2**n)
        if (target.q0, target.q1) in diffs:
            return True
        for u in pts:
            for lo, hi in intervals:
                if compare(u - hi, target) <= 0 <= compare(u - lo, target):
                    return True
                if compare(lo - u, target) <= 0 <= compare(hi - u, target):
                    return True
        for lo1, hi1 in intervals:
            for lo2, hi2 in intervals:
                if compare(lo1 - hi2, target) <= 0 <= compare(hi1 - lo2, target):
                    return True
    return False


def test_star_matches_brute_force_on_random_spectra():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        Z = random_spectrum(rng)
        for t in section_representatives(Z):
            S = vertical_section(Z, t)
            for n in range(0, 4):
                got = section_antipode_condition(Z, t, n)
                want = brute_star(S, n)
                assert got == want, (Z, t, n)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# per-level oracle: the pair level builders that the valuation rule
# replaced.  Each evaluates its condition at every level below `start` and
# spot-checks that it is constant from there on.


def _constant_from(start, cond):
    """Describe `cond`, which is constant for n >= start by construction."""
    value = cond(start)
    if cond(start + 1) != value or cond(start + 6) != value:
        raise ConsistencyError(f"pair condition is not constant from level {start}")
    return PairLevels(frozenset(n for n in range(start) if cond(n)), start, value)


def _stable_from(m):
    """First level n >= 0 from which gcd(2^{n+1}, m) no longer changes."""
    return max(0, _v2(m.numerator) - _v2(m.denominator))


def _odd_cond(n, c, mods):
    """Exists odd k and integers t_i with 2^n * k = c + sum t_i * m_i."""
    g = _rat_gcd([F(2 ** (n + 1))] + mods)
    return ((c - 2**n) / g).denominator == 1


def _odd_multiple_in_interval(n, a, b):
    """Is some odd multiple of 2^n * pi inside the real interval [a, b]?"""
    s = PiLinear(0, 2**n)
    kmin = ceil_ratio(a, s)
    kmax = floor_ratio(b, s)
    if kmax < kmin:
        return False
    return kmax > kmin or kmin % 2 != 0


def _interval_lattice_cond(n, lo, hi, base, step):
    # exists odd k, integer l: 2^n k pi + base + l step in [lo, hi]
    if step.q0 != 0:
        # a dense coset meets every nondegenerate closed interval
        return True
    g = _rat_gcd([F(2 ** (n + 1)), step.q1])
    # coefficients w = 2^n + g*j; need w*pi + base in [lo, hi]
    gp = PiLinear(0, g)
    off = PiLinear(0, 2**n) + base
    return floor_ratio(hi - off, gp) >= ceil_ratio(lo - off, gp)


def _oracle_module_levels(params):
    if params is None:
        return _NEVER
    c, mods = params
    m = _rat_gcd(mods)
    if m == 0:
        if c != 0 and c.denominator == 1:
            n = _v2(c.numerator)
            return PairLevels(frozenset({n}), n + 1, False)
        return _NEVER
    return _constant_from(_stable_from(m), lambda n: _odd_cond(n, c, mods))


def _oracle_interval_levels(a, b):
    # once 2^n * pi exceeds |a| and |b|, the only multiple in [a, b] is 0
    bound = max(a, -a, b, -b)
    start = 0
    while not PiLinear(0, 2**start) > bound:
        start += 1
    return _constant_from(start, lambda n: _odd_multiple_in_interval(n, a, b))


def _oracle_interval_lattice_levels(lo, hi, base, step):
    start = 0 if step.q0 != 0 else _stable_from(step.q1)
    return _constant_from(start, lambda n: _interval_lattice_cond(n, lo, hi, base, step))


def _extended_gcd_solution(A, B, C):
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


def _point_lattice_params(w, step):
    """Reduce w + l*step = 2^n * k * pi (integer l, odd k) to an
    (offset, moduli) instance, or None, solved directly: the oracle of
    `_pair_levels`, which reads a point as the lattice of step 0."""
    if step.q0 != 0:
        l = -w.q0 / step.q0
        if l.denominator != 1:
            return None
        return w.q1 + l * step.q1, []
    if w.q0 != 0:
        return None
    return w.q1, [step.q1]


def _oracle_lattice_lattice_params(w, s1, s2):
    """The two-lattice reduction with an extended-gcd particular solution."""
    a0, a1 = s1.q0, s1.q1
    c0, c1 = s2.q0, s2.q1
    if a0 == 0 and c0 == 0:
        if w.q0 != 0:
            return None
        return w.q1, [a1, c1]
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


def _oracle_point_lattice(n, w, step):
    # exists integer l, odd k: w + l*step = 2^n * k * pi
    if step.q0 != 0:
        l = -w.q0 / step.q0
        if l.denominator != 1:
            return False
        return _odd_cond(n, w.q1 + l * step.q1, [])
    if w.q0 != 0:
        return False
    return _odd_cond(n, w.q1, [step.q1])


def _oracle_pair(A, B, n):
    """Direct evaluation at one level: does {u - v : u in A, v in B}
    contain an odd multiple of 2^n*pi?"""
    if isinstance(A, SectionLine) or isinstance(B, SectionLine):
        return True
    if isinstance(A, SectionPoints) and isinstance(B, SectionPoints):
        diffs = (u - v for u in A.values for v in B.values)
        return any(d.q0 == 0 and _odd_cond(n, d.q1, []) for d in diffs)
    if isinstance(A, SectionPoints) and isinstance(B, SectionInterval):
        return any(_odd_multiple_in_interval(n, u - B.hi, u - B.lo) for u in A.values)
    if isinstance(A, SectionInterval) and isinstance(B, SectionPoints):
        return any(_odd_multiple_in_interval(n, A.lo - v, A.hi - v) for v in B.values)
    if isinstance(A, SectionInterval) and isinstance(B, SectionInterval):
        return _odd_multiple_in_interval(n, A.lo - B.hi, A.hi - B.lo)
    if isinstance(A, SectionPoints) and isinstance(B, SectionLattice):
        return any(_oracle_point_lattice(n, u - B.base, B.step) for u in A.values)
    if isinstance(A, SectionLattice) and isinstance(B, SectionPoints):
        return any(_oracle_point_lattice(n, A.base - v, A.step) for v in B.values)
    if isinstance(A, SectionLattice) and isinstance(B, SectionLattice):
        params = _lattice_lattice_params(A.base - B.base, A.step, B.step)
        return params is not None and _odd_cond(n, *params)
    if isinstance(A, SectionInterval) and isinstance(B, SectionLattice):
        return _interval_lattice_cond(n, A.lo, A.hi, B.base, B.step)
    if isinstance(A, SectionLattice) and isinstance(B, SectionInterval):
        return _interval_lattice_cond(n, B.lo, B.hi, A.base, A.step)
    raise TypeError(f"pair {type(A).__name__}/{type(B).__name__}")


def test_m_set_tail_matches_direct_evaluation():
    rng = random.Random(7)
    spectra = [random_spectrum(rng) for _ in range(25)]
    spectra += [SpectrumSet((PrimeFamily("3j+1", J),)) for J in (1, 4)]
    # two always-true tails on one section, from levels 0 and 2
    spectra.append(SpectrumSet((VLine(F(0)), ILattice(F(0), PiLinear(0, 1), PiLinear(0, 12)))))
    top = 40  # above every hit of these inputs (3j+1 at j = 11 is 34)
    for Z in spectra:
        for t in section_representatives(Z)[:2]:
            S = vertical_section(Z, t)
            pairs = [(A, B) for A in S.parts for B in S.parts]
            want = {n for n in range(top) if any(_oracle_pair(A, B, n) for A, B in pairs)}
            for n_max in range(1, 13):
                m = section_antipode_levels(Z, t, n_max)
                assert m.levels == {n for n in want if n <= n_max}, (Z, t, n_max)
                end = top if m.tail_all_from is None else m.tail_all_from
                assert m.tail_extra == {n for n in want if n_max < n < end}, (Z, t, n_max)
                assert all(n in want for n in range(end, top)), (Z, t, n_max)


def test_representatives_cover_rect_interior(rectangle):
    reps = section_representatives(rectangle)
    assert F(-1) in reps and F(0) in reps
    assert any(F(-1) < t < F(0) for t in reps)


def _all_pairs_point_levels(A, B):
    """Oracle: the levels of every difference of two point sets."""
    diffs = (u - v for u in A.values for v in B.values)
    return {_module_levels((d.q1, [])) for d in diffs if d.q0 == 0} - {_NEVER}


def test_point_pairs_by_coset_match_all_pairs():
    rng = random.Random(41)
    for _ in range(3000):
        def points():
            return SectionPoints(tuple(
                PiLinear(
                    rng.choice((F(0), F(0), F(1, 2))),
                    F(rng.randint(-40, 40), rng.randint(1, 8)),
                )
                for _ in range(rng.randint(1, 6))
            ))
        A, B = points(), points()
        got = list(_pair_levels(A, B))
        assert len(got) == len(set(got))
        assert set(got) == _all_pairs_point_levels(A, B), (A, B)


def _fraction_coset_levels(us, vs):
    """_points_points_levels with Fraction coset keys (q0, q1 mod 1)."""
    cosets: dict = {}
    for v in vs:
        cosets.setdefault((v.q0, v.q1 % 1), []).append(int(v.q1 - v.q1 % 1))
    hits = set()
    for u in us:
        x = int(u.q1 - u.q1 % 1)
        hits.update(_v2(x - y) for y in cosets.get((u.q0, u.q1 % 1), ()) if x != y)
    return sorted(hits)


def test_integer_section_keys_match_fraction_keys():
    # equal q1 mod 1 under different q0, negative q1 and mixed denominators
    fixed = [
        PiLinear(F(q0), F(q1))
        for q0 in (0, 1, F(-1, 2), F(1, 3))
        for q1 in (F(1, 3), F(4, 3), F(-2, 3), F(-5, 3), F(7, 6), F(-7, 2), 0, 5, -3)
    ]
    rng = random.Random(1907)
    draws = [fixed] + [
        [
            PiLinear(
                F(rng.randint(-6, 6), rng.randint(1, 6)),
                F(rng.randint(-90, 90), rng.randint(1, 12)),
            )
            for _ in range(rng.randint(1, 12))
        ]
        for _ in range(300)
    ]
    for vals in draws:
        (got,) = section_set([SectionPoints(tuple(vals))]).parts
        assert got.values == tuple(sorted(set(vals), key=lambda v: (v.q0, v.q1)))
        half = len(vals) // 2
        for us, vs in ((vals, vals), (vals[:half], vals[half:])):
            got = [d.hits for d in _points_points_levels(tuple(us), tuple(vs))]
            assert got == [frozenset({n}) for n in _fraction_coset_levels(us, vs)]


# ---------------------------------------------------------------------------
# differential oracles: the per-primitive dispatch and the ordered pair table
# that the real range x section part grammar and the unordered pairs replaced


def _oracle_real_part_range(Z):
    los, his = [], []
    for p in Z.primitives:
        if isinstance(p, Rect):
            los.append(p.re_lo)
            his.append(p.re_hi)
        elif isinstance(p, PrimeFamily):
            los.append(F(0))
            his.append(F(0))
        else:
            los.append(p.re)
            his.append(p.re)
    return min(los), max(his)


def _oracle_vertical_section(Z, t):
    parts = []
    for p in Z.primitives:
        if isinstance(p, Point):
            if p.re == t:
                parts.append(SectionPoints((p.im,)))
        elif isinstance(p, VSegment):
            if p.re == t:
                parts.append(SectionInterval(p.im_lo, p.im_hi))
        elif isinstance(p, ILattice):
            if p.re == t:
                parts.append(SectionLattice(p.base, p.step))
        elif isinstance(p, VLine):
            if p.re == t:
                parts.append(SectionLine())
        elif isinstance(p, Rect):
            if p.re_lo <= t <= p.re_hi:
                parts.append(SectionInterval(p.im_lo, p.im_hi))
        elif isinstance(p, PrimeFamily):
            if t == 0:
                vals = []
                for j in p.primes():
                    vals.append(p.alpha(j))
                    vals.append(p.beta(j))
                parts.append(SectionPoints(tuple(vals)))
        else:
            raise TypeError(f"unknown primitive {type(p).__name__}")
    return section_set(parts)


def _oracle_section_representatives(Z):
    crits, rects = set(), []
    for p in Z.primitives:
        if isinstance(p, Rect):
            crits.add(p.re_lo)
            crits.add(p.re_hi)
            rects.append(p)
        elif isinstance(p, PrimeFamily):
            crits.add(F(0))
        else:
            crits.add(p.re)
    reps = sorted(crits)
    ordered = sorted(crits)
    for c1, c2 in zip(ordered, ordered[1:]):
        if any(r.re_lo <= c1 and c2 <= r.re_hi for r in rects):
            reps.append(F(c1 + c2, 2))
    return tuple(sorted(set(reps)))


def _oracle_pair_levels(A, B):
    """The ordered ten-branch table: every order of every pair has a
    branch, and every branch builds its levels level by level."""
    if isinstance(A, SectionLine) or isinstance(B, SectionLine):
        return (_ALWAYS,)
    if isinstance(A, SectionPoints) and isinstance(B, SectionPoints):
        return _points_points_levels(A.values, B.values)
    if isinstance(A, SectionPoints) and isinstance(B, SectionInterval):
        return tuple(_oracle_interval_levels(u - B.hi, u - B.lo) for u in A.values)
    if isinstance(A, SectionInterval) and isinstance(B, SectionPoints):
        return tuple(_oracle_interval_levels(A.lo - v, A.hi - v) for v in B.values)
    if isinstance(A, SectionInterval) and isinstance(B, SectionInterval):
        return (_oracle_interval_levels(A.lo - B.hi, A.hi - B.lo),)
    if isinstance(A, SectionPoints) and isinstance(B, SectionLattice):
        return tuple(
            _oracle_module_levels(_point_lattice_params(u - B.base, B.step)) for u in A.values
        )
    if isinstance(A, SectionLattice) and isinstance(B, SectionPoints):
        return tuple(
            _oracle_module_levels(_point_lattice_params(A.base - v, A.step)) for v in B.values
        )
    if isinstance(A, SectionLattice) and isinstance(B, SectionLattice):
        params = _oracle_lattice_lattice_params(A.base - B.base, A.step, B.step)
        return (_oracle_module_levels(params),)
    if isinstance(A, SectionInterval) and isinstance(B, SectionLattice):
        return (_oracle_interval_lattice_levels(A.lo, A.hi, B.base, B.step),)
    if isinstance(A, SectionLattice) and isinstance(B, SectionInterval):
        return (_oracle_interval_lattice_levels(B.lo, B.hi, A.base, A.step),)
    raise TypeError(f"pair {type(A).__name__}/{type(B).__name__}")


def test_product_grammar_matches_per_primitive_dispatch(roots2k, solenoid, rectangle, primefamily):
    rng = random.Random(901)
    spectra = [roots2k, solenoid, rectangle, primefamily]
    spectra += [random_spectrum(rng) for _ in range(1500)]
    for Z in spectra:
        assert real_part_range(Z) == _oracle_real_part_range(Z), Z
        reps = section_representatives(Z)
        assert reps == _oracle_section_representatives(Z), Z
        # the representatives, plus a value left and right of every range
        for t in reps + (reps[0] - 1, reps[-1] + F(1, 3)):
            assert vertical_section(Z, t) == _oracle_vertical_section(Z, t), (Z, t)


def test_unordered_pairs_match_ordered_table():
    rng = random.Random(902)
    pairs, kinds = 0, set()
    for _ in range(1000):
        Z = random_spectrum(rng)
        for t in section_representatives(Z):
            S = vertical_section(Z, t)
            for A in S.parts:
                for B in S.parts:
                    want = set(_oracle_pair_levels(A, B))
                    assert set(_oracle_pair_levels(B, A)) == want, (A, B)
                    if _KIND_ORDER.index(type(A)) <= _KIND_ORDER.index(type(B)):
                        assert set(_pair_levels(A, B)) == want, (A, B)
                        pairs += 1
                        kinds.add((type(A), type(B)))
            # the union over the unordered pairs equals the ordered table's
            # union, hits and start included
            want = {d for A in S.parts for B in S.parts for d in _oracle_pair_levels(A, B)}
            assert set(_section_pair_levels(S)) == want, (Z, t)
    assert pairs > 2000 and len(kinds) == 10


def test_mixed_lattice_pairs_match_brute_force():
    # one step with an irrational part and one rational multiple of pi, in
    # both orders: the two-lattice reduction solves for the dense index
    # with the extended gcd.  Small entries keep a solution, when there is
    # one, inside brute_star's ranges: |k| <= 33 and indices within 10.
    rng = random.Random(1603)
    outcomes = set()
    for _ in range(50):
        a0 = rng.choice((F(1), F(2), F(1, 2)))
        dense = PiLinear(a0, rng.choice((F(0), F(1), F(1, 2))))
        rational = PiLinear(0, F(rng.randint(1, 6), rng.randint(1, 2)))
        # the irrational parts of the bases differ by a multiple of a0 or not
        shift = a0 * rng.randint(-3, 3) if rng.random() < 0.7 else F(rng.randint(1, 5), 3)
        base = PiLinear(shift, F(rng.randint(-6, 6), rng.randint(1, 2)))
        lattices = [ILattice(F(0), base, dense), ILattice(F(0), PiLinear(0, 0), rational)]
        rng.shuffle(lattices)
        Z = SpectrumSet(tuple(lattices))
        S = vertical_section(Z, F(0))
        for n in range(3):
            got = section_antipode_condition(Z, F(0), n)
            assert got == brute_star(S, n, k_range=10), (Z, n)
            outcomes.add(got)
    assert outcomes == {False, True}


def test_prime_family_formula_is_held_as_integers():
    assert PrimeFamily("3*j+1") == PrimeFamily((3, 1)) and PrimeFamily("j").n_seq == (1, 0)
    for bad in ("0j", "jj", "2j-1", (0, 1), (2, -1)):
        with pytest.raises(SpectrumError):
            PrimeFamily(bad)


@pytest.mark.parametrize("n_seq", ["2j", "3j+1", "j+4", "j"])
def test_prime_family_points_equal_their_rational_construction(n_seq):
    # a_j = pi/j + 2^(n_j+1)*pi and b_j = pi/j + 3*2^(n_j)*pi, built as reduced triples
    fam = PrimeFamily(n_seq, 200)
    for j in fam.primes():
        n = fam.n_of(j)
        assert fam.alpha(j) == PiLinear(0, F(1, j) + 2 ** (n + 1)), (n_seq, j)
        assert fam.beta(j) == PiLinear(0, F(1, j) + 3 * 2**n), (n_seq, j)


# ---------------------------------------------------------------------------
# the valuation rule against the per-level oracle


def test_valuations_match_enumeration():
    # small windows, some around large multiples of powers of two
    for center in (0, 3 << 40, -(5 << 70)):
        for lo in range(center - 20, center + 21):
            for hi in range(lo - 1, lo + 40):
                for below in (0, 2, 5, 200):
                    want = {_v2(x) for x in range(lo, hi + 1) if x} & set(range(below))
                    assert _valuations(lo, hi, below) == want, (lo, hi, below)


def _random_offset(rng, bits, irrational=True):
    """A value of size up to 2^bits * pi, with an irrational part or not."""
    q0 = F(0)
    if irrational and rng.random() < 1 / 3:
        q0 = F(rng.randint(-9, 9), rng.randint(1, 5))
    q1 = F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 6))
    return PiLinear(q0, q1)


def test_interval_levels_match_per_level_oracle():
    rng = random.Random(4701)
    bits = [rng.randint(0, 12) for _ in range(500)] + [rng.randint(13, 300) for _ in range(40)]
    bits += [rng.randint(3000, 4000) for _ in range(20)]
    outcomes = set()
    for b in bits:
        # the oracle's irrational floor ratios take seconds at 4000 bits
        irrational = b <= 300
        a = _random_offset(rng, b, irrational)
        # lengths from 0 (a degenerate interval) to about 80*pi
        lengths = [PiLinear(0, 0), PiLinear(0, F(rng.randint(0, 80 * 4), 4))]
        if irrational:
            lengths.append(PiLinear(F(rng.randint(0, 200), 3), F(rng.randint(0, 60))))
        length = rng.choice(lengths)
        got = _interval_levels(a, a + length)
        assert got == _oracle_interval_levels(a, a + length), (a, length)
        outcomes.add(len(got.hits) > 1)
    assert outcomes == {False, True}


def test_module_levels_match_per_level_oracle():
    rng = random.Random(4702)
    starts = set()
    for _ in range(3000):
        c = F(rng.randint(-40, 40) << rng.randint(0, 14), rng.choice((1, 1, 1, 2, 3, 4, 5)))
        # zero to two moduli, some zero, with odd and even denominators
        mods = [
            F(rng.randint(0, 12) << rng.randint(0, 10), rng.choice((1, 2, 3, 5, 6, 8)))
            for _ in range(rng.randint(0, 2))
        ]
        got = _module_levels((c, mods))
        assert got == _oracle_module_levels((c, mods)), (c, mods)
        starts.add((got.start > 0, bool(got.hits), got.value))
    assert len(starts) >= 5


def test_interval_lattice_levels_match_per_level_oracle():
    rng = random.Random(4703)
    outcomes = set()
    for _ in range(1500):
        lo = _random_offset(rng, 12)
        hi = lo + PiLinear(rng.choice((F(0), F(1, 3))), F(rng.randint(1, 80 * 4), 4))
        base = _random_offset(rng, 6)
        if rng.random() < 0.1:
            step = PiLinear(F(rng.randint(1, 3)), F(rng.randint(0, 2), 2))  # irrational
        else:
            # v2 of the numerator from 0 to 10, odd or even denominators
            num = (2 * rng.randint(0, 20) + 1) << rng.randint(0, 10)
            step = PiLinear(0, F(num, rng.choice((1, 2, 3, 4, 5, 8, 9))))
        got = _interval_lattice_levels(lo, hi, base, step)
        assert got == _oracle_interval_lattice_levels(lo, hi, base, step), (lo, hi, base, step)
        outcomes.add((bool(got.hits), got.value))
    assert len(outcomes) == 4


def test_a_point_reduces_as_the_lattice_of_step_zero():
    # with s1 = 0 the two-lattice instance has A = 0 and g = |B|: it is
    # solvable when w.q0 / step.q0 is an integer, with k1 = 0, k2 that
    # integer and the one modulus 0, the levels of the point's own instance
    rng = random.Random(4705)
    irrational = (F(0), F(0), F(1), F(-2), F(1, 2), F(3, 4), F(-5, 6))
    seen = set()
    for _ in range(3000):
        q1 = F(rng.choice((1, -1)) * rng.randint(1, 24) << rng.randint(0, 4), rng.randint(1, 6))
        step = PiLinear(rng.choice(irrational), q1)
        if rng.random() < 0.5 and step.q0 != 0:
            # an offset a whole number of steps off the real part 0
            w0 = rng.randint(-6, 6) * step.q0
        else:
            w0 = rng.choice((F(0), F(rng.randint(-12, 12), rng.randint(1, 4))))
        w = PiLinear(w0, F(rng.randint(-60, 60), rng.randint(1, 6)))
        want = _point_lattice_params(w, step)
        got = _lattice_lattice_params(w, ZERO, step)
        assert (got is None) == (want is None), (w, step)
        assert _module_levels(got) == _module_levels(want), (w, step)
        seen.add((step.q0 == 0, w.q0 == 0, want is None))
    # (rational step, zero offset, no solution): a rational step meets a
    # nonzero offset never and a zero one always, an irrational step meets
    # a zero offset always and a nonzero one on whole multiples only
    assert seen == {
        (False, False, False), (False, False, True), (False, True, False), (True, False, True), (True, True, False)
    }


def test_lattice_pairs_match_extended_gcd_oracle():
    # a different particular solution moves the offset by a multiple of the
    # modulus; the descriptions agree, also with a0 = 0 or c0 = 0
    rng = random.Random(4704)
    solved = set()
    irrational = (F(0), F(0), F(1), F(2), F(-3), F(1, 2), F(3, 4), F(5, 6))
    for _ in range(2000):
        w = PiLinear(
            F(rng.randint(-12, 12), rng.randint(1, 4)), F(rng.randint(-60, 60), rng.randint(1, 6))
        )
        s1, s2 = (
            PiLinear(
                rng.choice(irrational), F(rng.randint(0, 24) << rng.randint(0, 4), rng.randint(1, 6))
            )
            for _ in range(2)
        )
        params = _lattice_lattice_params(w, s1, s2)
        want = _oracle_lattice_lattice_params(w, s1, s2)
        assert (params is None) == (want is None), (w, s1, s2)
        assert _module_levels(params) == _oracle_module_levels(want), (w, s1, s2)
        if params is not None:
            solved.add((s1.q0 == 0, s2.q0 == 0))
    assert solved == {(False, False), (True, False), (False, True), (True, True)}


def _trial_division_primes(count: int) -> list[int]:
    out, candidate = [], 3
    while len(out) < count:
        if all(candidate % p for p in range(2, math.isqrt(candidate) + 1)):
            out.append(candidate)
        candidate += 2
    return out


def test_sieve_matches_trial_division():
    want = _trial_division_primes(3000)
    # the sieve's bound doubles from 64: take every count at which a bound
    # just holds the primes or just misses, every count below 100, and a
    # stride to 3000
    bounds = [64 << k for k in range(12)]
    edges = {sum(p < b for p in want) + e for b in bounds for e in (-1, 0, 1)}
    counts = {c for c in (*edges, *range(100), *range(100, 3001, 97), 3000) if 0 <= c <= 3000}
    sieve = primes_from_3.__wrapped__  # uncached: no count is kept
    for c in sorted(counts):
        assert sieve(c) == tuple(want[:c]), c
    assert primes_from_3(3000) is primes_from_3(3000)


def _general_section_levels(Z: SpectrumSet, t: F, n_max: int) -> tuple:
    """section_antipode_levels' fields from the pairs of the built section
    points, the route every section shared with other parts takes."""
    descriptions = list(_section_pair_levels(vertical_section(Z, t)))
    assert not any(d.value for d in descriptions)
    hits = frozenset().union(*(d.hits for d in descriptions))
    return frozenset(n for n in hits if n <= n_max), frozenset(n for n in hits if n > n_max)


@pytest.mark.parametrize("nseq", ["2j", "3j+1", "j+4", "j"])
def test_family_alone_on_its_section_has_the_schedule_levels(nseq, monkeypatch):
    for J in (1, 2, 25, 200):
        fam = PrimeFamily(nseq, J)
        Z = SpectrumSet((fam, Point(F(1), PiLinear(0, 1))))
        for n_max in (1, 6, 12, 40):
            want = _general_section_levels(Z, F(0), n_max)
            with monkeypatch.context() as m:
                m.setattr(PrimeFamily, "section", property(lambda self: pytest.fail("section built")))
                got = section_antipode_levels(Z, F(0), n_max)
                if n_max == 40:
                    top = max(fam.schedule) + 2
                    held = {n for n in range(top) if section_antipode_condition(Z, F(0), n)}
                    assert held == set(fam.schedule), (nseq, J)
            assert (got.levels, got.tail_extra) == want, (nseq, J, n_max)
            assert got.tail_all_from is None and got.unbounded_schedule is fam
            assert got.levels | got.tail_extra == set(fam.schedule)
        # beside a point of its section the family's points are paired: pi/3
        # against a_3 = pi/3 + 2^(n_3 + 1)*pi adds the level n_3 + 1
        shared = SpectrumSet((fam, Point(F(0), PiLinear(0, F(1, 3)))))
        got = section_antipode_levels(shared, F(0), 40)
        assert (got.levels, got.tail_extra) == _general_section_levels(shared, F(0), 40)
        assert fam.n_of(3) + 1 in got.levels | got.tail_extra


def test_section_points_are_in_coefficient_order():
    rng = random.Random(57)
    for _ in range(200):
        points = [PiLinear(F(rng.randint(-9, 9), rng.randint(1, 12)), F(rng.randint(-9, 9), rng.randint(1, 12)))
                  for _ in range(rng.randint(1, 12))]
        S = section_set([SectionPoints(tuple(points))])
        assert S.parts[0].values == tuple(sorted(set(points), key=lambda v: (v.q0, v.q1)))
