import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicspec import levels, threads
from dyadicspec.classify import Verdict, classify
from dyadicspec.cli import builtin_example, parse_config
from dyadicspec.exactnum import PiLinear, _v2, compare, reduce_mod_2pi
from dyadicspec.levels import LevelCache, LevelPoint, component_sup_candidates, sup_abs_one_minus
from dyadicspec.realbounds import compare_abs1m_sq
from dyadicspec.spectrum import BOUNDED_PARTS, ILattice, Point, Rect, SpectrumSet, VLine, VSegment
from dyadicspec.threads import (
    InfeasibleThread,
    Thread,
    convergence_rate,
    divergence_search,
    evaluate,
    feasible_branches,
    grow,
    persistence_certificate,
    search,
    search_seeds,
    step_point,
    tail_closes,
    verify_witness,
    walk,
)

from conftest import random_spectrum


def test_evaluate_examples(roots2k, rectangle):
    ck, cr = LevelCache(roots2k), LevelCache(rectangle)
    th = Thread(0, LevelPoint(F(0), PiLinear(0, 0)))
    assert evaluate(ck, th, 5) == LevelPoint(F(0), PiLinear(0, 0))
    th = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1,))
    assert evaluate(ck, th, 3).angle == PiLinear(0, F(1, 4))
    th = Thread(0, LevelPoint(F(-1), PiLinear(0, 0)))
    p = evaluate(cr, th, 2)
    assert p.log_mod == F(-1, 4) and p.angle == PiLinear(0, 0)


def test_evaluate_infeasible_reports_level(rectangle):
    cr = LevelCache(rectangle)
    th = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1,))  # -1 not in X_1
    with pytest.raises(InfeasibleThread) as err:
        evaluate(cr, th, 3)
    assert err.value.level == 1


def test_feasible_branches_examples(roots2k, rectangle, solenoid):
    ck, cr, cs = LevelCache(roots2k), LevelCache(rectangle), LevelCache(solenoid)
    bits = [b for b, _ in feasible_branches(cs, 3, LevelPoint(F(0), PiLinear(0, F(1, 5))))]
    assert bits == [0, 1]
    bits = [b for b, _ in feasible_branches(cr, 0, LevelPoint(F(0), PiLinear(0, 0)))]
    assert bits == [0]
    bits = [b for b, _ in feasible_branches(ck, 1, LevelPoint(F(0), PiLinear(0, 1)))]
    assert bits == [0, 1]
    with pytest.raises(ValueError):
        feasible_branches(ck, 1, LevelPoint(F(0), PiLinear(0, F(1, 3))))


def test_square_of_next_level_is_current_random():
    rng = random.Random(23)
    for _ in range(20):
        Z = random_spectrum(rng)
        cache = LevelCache(Z)
        from dyadicspec.levels import component_sup_candidates

        for c in cache.level(0).components:
            for seed in component_sup_candidates(c)[:2]:
                th_bits = tuple(rng.randint(0, 1) for _ in range(4))
                p = seed
                for lvl in range(0, 4):
                    branches = feasible_branches(cache, lvl, p)
                    if not branches:
                        break
                    pick = next(
                        (q for b, q in branches if b == th_bits[lvl]), branches[0][1]
                    )
                    sq = LevelPoint(2 * pick.log_mod, reduce_mod_2pi(pick.angle.scaled(2)))
                    assert sq == p or compare(sq.angle, p.angle) == 0
                    p = pick


def test_divergence_search_solenoid(solenoid):
    cs = LevelCache(solenoid)
    th = divergence_search(cs, 20, F(7, 5))
    assert th is not None
    assert verify_witness(cs, th, 20, F(7, 5))
    # every level of the witness satisfies the exact band bound  |1-z|^2 >= 2
    p = evaluate(cs, th, th.base_level)
    for n in range(th.base_level, 21):
        if n > th.base_level:
            p = step_point(p, th.bit_at(n))
        assert compare_abs1m_sq(p.log_mod, p.angle, F(2)) >= 0
    assert persistence_certificate(solenoid, cs, th, 20) is not None


def test_divergence_search_rectangle_none(rectangle):
    cr = LevelCache(rectangle)
    assert divergence_search(cr, 20, F(1, 2)) is None


def test_divergence_search_roots2k(roots2k):
    ck = LevelCache(roots2k)
    th = divergence_search(ck, 10, F(7, 5))
    assert th is not None and verify_witness(ck, th, 10, F(7, 5))
    assert persistence_certificate(roots2k, ck, th, 10) is not None


def test_witnesses_unverifiable_on_tamper(solenoid):
    cs = LevelCache(solenoid)
    th = divergence_search(cs, 10, F(7, 5))
    bad = Thread(th.base_level, LevelPoint(F(0), PiLinear(0, F(1, 100))), th.bits)
    assert not verify_witness(cs, bad, 10, F(7, 5))


def test_rate_constant_examples(roots2k, rectangle):
    ck, cr = LevelCache(roots2k), LevelCache(rectangle)
    r = convergence_rate(ck, Thread(0, LevelPoint(F(0), PiLinear(0, 0))), 8)
    assert r.constant == 0
    r = convergence_rate(ck, Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1,)), 14)
    # closed form |1 - e^{i pi/2^{n-1}}| = 2 sin(pi / 2^n)
    for row in r.rows:
        if row.level >= 1:
            closed = 2 * math.sin(math.pi / 2**row.level)
            assert abs(float(row.dist_hi) - closed) < 1e-12
    assert 2 < float(r.constant) <= 2 * math.pi + 1e-9

    corner = Thread(0, LevelPoint(F(-1), PiLinear(0, 1)))
    r = convergence_rate(cr, corner, 20)
    for row in r.rows[2:]:
        x = 2.0 ** -row.level
        radical = math.sqrt(
            (1 - math.exp(-x)) ** 2 + 2 * math.exp(-x) * (1 - math.cos(x * math.pi))
        )
        assert abs(float(row.dist_hi) - radical) < 1e-10
    # rate certified: values dominated by C / 2^n
    C = float(r.constant)
    for row in r.rows:
        assert float(row.dist_lo) <= C / 2**row.level + 1e-12


def test_walk_yields_every_level_from_the_base(roots2k):
    ck = LevelCache(roots2k)
    th = Thread(2, LevelPoint(F(0), PiLinear(0, 0)), bits=(1,))
    steps = list(walk(ck, th, 5))
    assert [n for n, _ in steps] == [2, 3, 4, 5]
    assert steps[1][1].angle == PiLinear(0, 1)
    assert evaluate(ck, th, 5) == steps[-1][1]
    assert evaluate(ck, th, 2) == th.base


def test_walk_rejects_levels_it_cannot_reach(roots2k):
    ck = LevelCache(roots2k)
    th = Thread(2, LevelPoint(F(0), PiLinear(0, 0)))
    with pytest.raises(ValueError, match="below the thread base"):
        evaluate(ck, th, 1)


def test_walk_stops_at_the_infeasible_level(rectangle):
    cr = LevelCache(rectangle)
    th = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(0, 1))  # -1 leaves X_2
    seen = []
    with pytest.raises(InfeasibleThread) as err:
        for n, _ in walk(cr, th, 4):
            seen.append(n)
    assert seen == [0, 1] and err.value.level == 2
    with pytest.raises(InfeasibleThread) as err:
        evaluate(cr, Thread(0, LevelPoint(F(1), PiLinear(0, 0))), 3)
    assert err.value.level == 0


def test_grow_takes_the_negated_root_only_when_the_principal_leaves():
    # level 1 of {2*pi*i} is {-1}: the principal root 1 of the level-0 point leaves it
    cache = LevelCache(SpectrumSet((Point(F(0), PiLinear(0, 2)),)))
    th, points = grow(cache, LevelPoint(F(0), PiLinear(0, 0)), 5)
    assert th == Thread(0, LevelPoint(F(0), PiLinear(0, 0)), (1, 0, 0, 0, 0))
    assert points == tuple(p for _, p in walk(cache, th, 5))
    # a seed outside level 0, or a point whose two roots both leave, grows nothing
    assert grow(cache, LevelPoint(F(1), PiLinear(0, 0)), 5) is None

    class LevelZeroOnly:
        def contains(self, n, p):
            return n == 0

    assert grow(LevelZeroOnly(), LevelPoint(F(0), PiLinear(0, 0)), 5) is None


def test_verify_witness_below_the_base_checks_the_base_only(solenoid):
    cs = LevelCache(solenoid)
    delta = F(7, 5)
    assert verify_witness(cs, Thread(3, LevelPoint(F(0), PiLinear(0, 1))), 1, delta)
    assert not verify_witness(cs, Thread(3, LevelPoint(F(0), PiLinear(0, F(1, 100)))), 1, delta)
    assert not verify_witness(cs, Thread(3, LevelPoint(F(1), PiLinear(0, 1))), 1, delta)


def test_search_budget_of_one_node_finds_nothing(solenoid):
    cs = LevelCache(solenoid)

    def keep(level, p):
        return compare_abs1m_sq(p.log_mod, p.angle, F(49, 25)) >= 0

    found = search(cs, search_seeds(cs, range(13)), 20, keep, 20000)
    assert found is not None and found == divergence_search(cs, 20, F(7, 5))
    assert search(cs, search_seeds(cs, range(13)), 20, keep, 1) is None


def _abs_angle(p):
    return -p.angle if p.angle.sign() < 0 else p.angle


@settings(max_examples=300, deadline=None)
@given(
    q0=st.fractions(min_value=-40, max_value=40, max_denominator=12),
    q1=st.fractions(min_value=-40, max_value=40, max_denominator=12),
    m=st.fractions(min_value=-50, max_value=50, max_denominator=12),
    at_pi=st.booleans(),
)
def test_the_negated_root_is_never_nearer_to_one(q0, q1, m, at_pi):
    # siblings share a radius; bit 1 lands at |angle| = pi - |angle|/2 and
    # bit 0 at |angle|/2, so the bit alone orders them, with a tie at pi only
    angle = PiLinear(0, 1) if at_pi else reduce_mod_2pi(PiLinear(q0, q1))
    p = LevelPoint(m, angle)
    principal, negated = step_point(p, 0), step_point(p, 1)
    assert principal.log_mod == negated.log_mod
    order = compare(_abs_angle(negated), _abs_angle(principal))
    assert order >= 0 and (order == 0) == (angle == PiLinear(0, 1)), angle


@pytest.mark.parametrize("re", [-(10**400), 10**400], ids=["re=-10^400", "re=10^400"])
def test_siblings_order_by_the_bit_past_the_float_range(re):
    # the float estimate reads both roots of a point at |re| = 10^400 as
    # 1.0 or inf; the bit puts the negated root, farther from 1, first
    cache = LevelCache(SpectrumSet((VLine(F(re)),)))
    p = LevelPoint(F(re), PiLinear(1))
    th = search(cache, [(0, p)], 1, lambda n, q: True, 10)
    assert th == Thread(0, p, (1,))
    # at pi the roots tie and the principal one goes first
    p = LevelPoint(F(re), PiLinear(0, 1))
    assert search(cache, [(0, p)], 1, lambda n, q: True, 10) == Thread(0, p, (0,))


# ---------------------------------------------------------------------------
# full-walk oracles: the divergence search, witness check and persistence
# certificate as they read before the bit-1 tail certificate cut them short


def _walked_search(cache, depth, delta, budget):
    delta_sq = F(delta) ** 2

    def keep(level, p):
        return compare_abs1m_sq(p.log_mod, p.angle, delta_sq) >= 0

    seeds = search_seeds(cache, range(min(depth, max(9, depth * 2 // 3))))
    return search(cache, seeds, depth, keep, budget)


def _walked_verify(cache, th, depth, delta):
    delta_sq = F(delta) ** 2
    try:
        return all(
            compare_abs1m_sq(p.log_mod, p.angle, delta_sq) >= 0
            for _, p in walk(cache, th, max(depth, th.base_level))
        )
    except InfeasibleThread:
        return False


def _walked_persistence(Z, cache, th, depth):
    half_pi = PiLinear(0, F(1, 2))
    p = evaluate(cache, th, depth)
    mag = -p.angle if p.angle.sign() < 0 else p.angle
    if (mag - half_pi).sign() < 0:
        return None
    for prim in Z.primitives:
        if not isinstance(prim, (VLine, ILattice)):
            continue
        sub = cache if cache.Z.primitives == (prim,) else LevelCache(SpectrumSet((prim,)))
        try:
            evaluate(sub, th, depth)
        except (InfeasibleThread, ValueError):
            continue
        if isinstance(prim, VLine) or prim.step.q0 != 0:
            return prim, None
        return prim, _v2(prim.step.q1.numerator)
    return None


def test_bounded_cut_returns_what_the_full_search_returns():
    # on bounded section parts divergence_search may skip the search after
    # one sup over level `depth`; it must still return exactly the thread,
    # or the None, of the search it skips
    rng = random.Random(1303)
    spectra = [random_spectrum(rng) for _ in range(24)]
    bounded = [all(isinstance(p.section, BOUNDED_PARTS) for p in Z.primitives) for Z in spectra]
    assert any(bounded) and not all(bounded)

    grid = [(d, delta, 20000) for d in (1, 4, 8, 12) for delta in (F(1, 2), F(1), F(7, 5), F(2))]
    cut = found = 0
    for Z, is_bounded in zip(spectra, bounded):
        cache = LevelCache(Z)
        for depth, delta, budget in grid + [(12, F(1, 2), 5)]:
            th = divergence_search(cache, depth, delta, budget)
            if budget == 5:
                # a certified tail costs one pop where the walk pops one node
                # per level: a short budget ends in nothing or in the thread
                # the walk finds with room
                assert th is None or th == _walked_search(cache, depth, delta, 20000), (Z, depth, delta)
            else:
                assert th == _walked_search(cache, depth, delta, budget), (Z, depth, delta, budget)
            if is_bounded:
                cut += sup_abs_one_minus(cache.level(depth), 15).sq_hi < delta**2
                found += th is not None
    # on bounded spectra the cut skips some searches and leaves others to succeed
    assert cut and found


@pytest.mark.parametrize(
    "Z",
    [SpectrumSet((VLine(F(0)),)), SpectrumSet((VLine(F(0)), Point(F(-1), PiLinear(0, F(1, 2)))))],
)
def test_persistence_certificate_builds_no_cache(Z, monkeypatch):
    # the certificate reads one point of the thread in the caller's cache
    cache = LevelCache(Z)
    th = divergence_search(cache, 10, F(7, 5))
    built = []

    def counted(sub):
        built.append(sub)
        return LevelCache(sub)

    monkeypatch.setattr(threads, "LevelCache", counted)
    assert persistence_certificate(Z, cache, th, 10) == (VLine(F(0)), None)
    assert built == []


# ---------------------------------------------------------------------------
# the one-point persistence certificate against the walk it replaced


def _parent_persistence(Z, cache, th, depth):
    """The certificate as a walk of the thread through a cache of each line
    or lattice alone, to the level where its tower closes."""
    if not (depth > th.base_level and th.bit_at(depth) == 1):
        p = evaluate(cache, th, depth)
        mag = -p.angle if p.angle.sign() < 0 else p.angle
        if (mag - PiLinear(0, F(1, 2))).sign() < 0:
            return None
    for prim in Z.primitives:
        if not isinstance(prim, (VLine, ILattice)):
            continue
        sub = cache if cache.Z.primitives == (prim,) else LevelCache(SpectrumSet((prim,)))
        closed_from = None if isinstance(prim, VLine) or prim.step.q0 != 0 else _v2(prim.step.q1.numerator)
        try:
            evaluate(sub, th, min(depth, max(th.base_level, (closed_from or 0) - 1)))
        except (InfeasibleThread, ValueError):
            continue
        return prim, closed_from
    return None


def test_persistence_certificate_matches_the_walk_on_every_witness():
    rng = random.Random(4141)
    spectra = [builtin_example(name).spectrum for name in ("roots2k", "solenoid", "rectangle", "primefamily")]
    while len(spectra) < 304:
        Z = random_spectrum(rng)
        if any(isinstance(p, (VLine, ILattice)) for p in Z.primitives):
            spectra.append(Z)
    witnesses = 0
    for Z in spectra:
        cache = LevelCache(Z)
        for depth in (5, 30, 100):
            for delta in (F(1, 2), F(7, 5)):
                th = divergence_search(cache, depth, delta, 3000)
                if th is None:
                    continue
                want = _parent_persistence(Z, cache, th, depth)
                assert persistence_certificate(Z, cache, th, depth) == want, (Z, depth, delta)
                witnesses += 1
    assert witnesses > 300


def test_persistence_certificate_refuses_threads_off_the_tower():
    full = PiLinear(0, 8)
    cases = [
        # inside the rectangle, off the line's circle
        (SpectrumSet((VLine(F(0)), Rect(F(-1), F(-1, 2), PiLinear(0, -32), PiLinear(0, 32)))),
         Thread(0, LevelPoint(F(-1), PiLinear(0, 1)), (1, 1, 1, 1, 1)), 5),
        # on the lattice's circle inside the segment, off the lattice's level-2
        # orbit {pi/4}, where the lattice (step 8pi) closes
        (SpectrumSet((ILattice(F(0), PiLinear(0, 1), full), VSegment(F(0), -full, full))),
         Thread(0, LevelPoint(F(0), PiLinear(0, F(1, 3))), (1, 1, 1)), 3),
        # a dense lattice is the full circle: off it only by the radius
        (SpectrumSet((ILattice(F(1), PiLinear(0), PiLinear(1, 1)), VSegment(F(0), -full, full))),
         Thread(0, LevelPoint(F(0), PiLinear(0, 1)), (1, 1)), 2),
    ]
    for Z, th, depth in cases:
        cache = LevelCache(Z)
        evaluate(cache, th, depth)  # the thread stays in Z
        assert persistence_certificate(Z, cache, th, depth) is None
        assert _parent_persistence(Z, cache, th, depth) is None


@settings(max_examples=200, deadline=None)
@given(
    re=st.sampled_from((F(-3), F(0), F(1, 2), F(2))),
    base=st.sampled_from((PiLinear(0, 0), PiLinear(0, 1), PiLinear(0, F(1, 3)), PiLinear(F(1, 2), F(-3, 4)))),
    step=st.sampled_from((None, PiLinear(0, 2), PiLinear(0, F(2, 3)), PiLinear(0, F(8, 3)), PiLinear(0, 5), PiLinear(1, 1))),
    n=st.integers(0, 9),
)
def test_on_line_level_is_membership_in_the_primitive_level(re, base, step, n):
    prim = VLine(re) if step is None else ILattice(re, base, step)
    cache = LevelCache(SpectrumSet((prim,)))
    points = [q for c in cache.view(n) for q in component_sup_candidates(c)]
    points += [LevelPoint(cache.view(n)[0].lo_log, reduce_mod_2pi(PiLinear(0, F(k, 7)))) for k in range(-7, 7)]
    points += [LevelPoint(q.log_mod + F(1, 8), q.angle) for q in points[:3]]
    points += [LevelPoint(q.log_mod, reduce_mod_2pi(q.angle + PiLinear(0, F(1, 2**n)))) for q in points[:3]]
    for q in points:
        assert levels.on_line_level(prim, n, q) == cache.contains(n, q), (prim, n, q)


# ---------------------------------------------------------------------------
# the bit-1 tail certificate against the full walks

_RES = (F(-3), F(-1), F(0), F(1, 2), F(2))
_DELTAS = (F(1, 2), F(1), F(7, 5), F(17, 10), F(173, 100))
_STEPS = (
    PiLinear(0, 2),
    PiLinear(0, 1),
    PiLinear(0, 4),
    PiLinear(0, F(2, 3)),  # odd numerator: closed from level 0
    PiLinear(0, F(8, 3)),  # closed from level 3
    PiLinear(1, 1),  # dense orbit
)
_BASES = (PiLinear(0, 0), PiLinear(0, 1), PiLinear(0, F(1, 2)), PiLinear(0, F(1, 3)), PiLinear(F(1, 2), 0))


@st.composite
def _spectra(draw):
    """A conftest draw, a line or lattice, the two together, or the line or
    lattice followed by a line at its real part."""
    re = draw(st.sampled_from(_RES))
    source = draw(
        st.one_of(
            st.just(VLine(re)),
            st.builds(ILattice, st.just(re), st.sampled_from(_BASES), st.sampled_from(_STEPS)),
        )
    )
    drawn = random_spectrum(random.Random(draw(st.integers(0, 10**6)))).primitives
    kind = draw(st.sampled_from(("drawn", "source", "both", "lined")))
    parts = {"drawn": drawn, "source": (source,), "both": drawn + (source,), "lined": (source, VLine(re))}
    return SpectrumSet(parts[kind])


def _tampered(th):
    """The thread with its last bit flipped, with one bit flipped mid-prefix,
    and cut one bit short of its depth."""
    bits = th.bits
    out = [Thread(th.base_level, th.base, bits[:-1] + (1 - bits[-1],))]
    if len(bits) > 2:
        k = len(bits) // 2
        out.append(Thread(th.base_level, th.base, bits[:k] + (1 - bits[k],) + bits[k + 1 :]))
    out.append(Thread(th.base_level, th.base, bits[:-1]))
    return out


def test_tail_search_equals_the_walked_search_on_random_spectra():
    # with a budget that covers every walk, the certified tail changes no
    # result at any delta, and every witness re-checks
    rng = random.Random(4949)
    spectra = [random_spectrum(rng) for _ in range(100)]
    witnesses = 0
    for Z in spectra:
        cache = LevelCache(Z)
        for depth in (4, 12, 30):
            for delta in (F(1, 4), F(1, 2), F(1), F(7, 5), F(17, 10), F(2)):
                th = divergence_search(cache, depth, delta, 200000)
                assert th == _walked_search(cache, depth, delta, 200000), (Z, depth, delta)
                if th is not None:
                    assert verify_witness(cache, th, depth, delta), (Z, depth, delta)
                    witnesses += 1
    assert witnesses > 100


@settings(max_examples=60, deadline=None)
@given(Z=_spectra(), depth=st.sampled_from((12, 40, 200)), delta=st.sampled_from(_DELTAS))
def test_tail_certificate_matches_the_full_walks(Z, depth, delta):
    cache = LevelCache(Z)
    budget = 3000
    th = divergence_search(cache, depth, delta, budget)
    assert th == _walked_search(cache, depth, delta, budget)
    if th is None:
        return
    assert verify_witness(cache, th, depth, delta) and _walked_verify(cache, th, depth, delta)
    assert persistence_certificate(Z, cache, th, depth) == _walked_persistence(Z, cache, th, depth)
    for bad in _tampered(th) if th.bits else ():
        ok = verify_witness(cache, bad, depth, delta)
        assert ok == _walked_verify(cache, bad, depth, delta)
        if ok:
            assert persistence_certificate(Z, cache, bad, depth) == _walked_persistence(Z, cache, bad, depth)


def test_tail_certificate_closes_where_the_witness_turns_onto_the_cycle(solenoid):
    cs = LevelCache(solenoid)
    delta_sq = F(49, 25)
    # pi/2 lies pi/6 from the 2-cycle; its bit-1 child -3pi/4 closer still
    assert tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(1, 2))), delta_sq)
    assert tail_closes(solenoid, 2, LevelPoint(F(0), PiLinear(0, F(-3, 4))), delta_sq)
    # farther than pi/6 from the cycle (pi, and 29pi/60 whose corners would
    # pass) or off the line's circle it fails; a kept bit-0 child (at 6/5)
    # and delta <= 1 do not matter, as the search pops bit 1 first
    assert not tail_closes(solenoid, 0, LevelPoint(F(0), PiLinear(0, 1)), delta_sq)
    assert not tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(29, 60))), delta_sq)
    assert tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(1, 2))), F(6, 5))
    assert tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(2, 3))), F(6, 5))
    # right of the unit circle the radii fall towards 1, so the bit-1 bound
    # needs the corner at m = 0: the child of 5pi/6 dips below 17/10
    line = SpectrumSet((VLine(F(1, 2)),))
    assert compare_abs1m_sq(F(1, 8), PiLinear(0, F(7, 12)), F(289, 100)) < 0
    assert not tail_closes(line, 1, LevelPoint(F(1, 4), PiLinear(0, F(5, 6))), F(289, 100))
    assert not tail_closes(solenoid, 1, LevelPoint(F(1, 4), PiLinear(0, F(1, 2))), delta_sq)
    assert tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(1, 2))), F(1))
    # past delta^2 = 3, the value on the cycle itself, the bit-1 bound fails by itself
    assert tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(2, 3))), F(3))
    assert not tail_closes(solenoid, 1, LevelPoint(F(0), PiLinear(0, F(2, 3))), F(301, 100))
    # a lattice with step 8*pi is antipode-closed only from level 3 on; its
    # level-2 orbit is the one angle -2pi/3, the square of 2pi/3 at level 1
    lat = SpectrumSet((ILattice(F(0), PiLinear(0, F(-8, 3)), PiLinear(0, 8)),))
    q1, q2 = (LevelPoint(F(0), PiLinear(0, F(k, 3))) for k in (2, -2))
    assert not tail_closes(lat, 1, q1, delta_sq) and tail_closes(lat, 2, q2, delta_sq)
    assert not tail_closes(lat, 2, q1, delta_sq)
    th = divergence_search(cs, 30, F(7, 5))
    assert th.bits[1:] == (1,) * 29


def test_search_budget_at_the_tail_start_matches_the_walk(solenoid):
    # seeded at the tail node, the search returns the all-ones thread for
    # the one pop of that node; the walk pops it and then one node at each
    # level below it, and ends with the same thread when the budget left
    # after the first pop is depth - level, with None when it is one less
    cs = LevelCache(solenoid)
    delta_sq = F(49, 25)
    level, depth = 1, 40
    q = LevelPoint(F(0), PiLinear(0, F(1, 2)))
    ones = Thread(level, q, (1,) * (depth - level))

    def keep(n, p):
        return compare_abs1m_sq(p.log_mod, p.angle, delta_sq) >= 0

    def tail(n, p):
        return tail_closes(solenoid, n, p, delta_sq)

    assert search(cs, [(level, q)], depth, keep, 1, tail) == ones
    for left, found in ((depth - level, True), (depth - level - 1, False)):
        budget = 1 + left
        assert search(cs, [(level, q)], depth, keep, budget, tail) == ones
        assert search(cs, [(level, q)], depth, keep, budget) == (ones if found else None)
    # through the divergence search: equal to the walk wherever the walk's
    # budget covers the depth, and below that the same thread or None
    fits = [b for b in range(1, 60) if _walked_search(cs, depth, F(7, 5), b) is not None]
    want = _walked_search(cs, depth, F(7, 5), fits[0])
    for b in (fits[0], fits[0] + 1, 20000):
        assert divergence_search(cs, depth, F(7, 5), b) == _walked_search(cs, depth, F(7, 5), b) == want
    short = [divergence_search(cs, depth, F(7, 5), b) for b in range(1, fits[0])]
    assert set(short) <= {None, want} and short[-1] == want


def test_persistence_walks_a_rational_lattice_to_its_closing_level():
    # the lattice (step 8pi, closed from level 3) holds the witness's base
    # pi and its level-1 point pi/2, but not the level-2 point -3pi/4; the
    # line after it certifies
    lat = ILattice(F(0), PiLinear(0, 1), PiLinear(0, 8))
    Z = SpectrumSet((lat, VLine(F(0))))
    cache = LevelCache(Z)
    th = divergence_search(cache, 40, F(7, 5))
    assert (th.base_level, th.base.angle, th.bits[:2]) == (0, PiLinear(0, 1), (0, 1))
    assert persistence_certificate(Z, cache, th, 40) == _walked_persistence(Z, cache, th, 40)
    assert persistence_certificate(Z, cache, th, 40) == (VLine(F(0)), None)


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("spectrum vline re=0\nsearch_depth 90\n", Verdict.NOT_STRONGLY_CONTINUOUS),
        ("spectrum vline re=-1\nsearch_depth 100000\nnode_budget 200000\n", Verdict.NOT_STRONGLY_CONTINUOUS),
        # the certified tail costs one pop of the default 20000, at any delta
        ("spectrum vline re=0\nsearch_depth 100000\n", Verdict.NOT_STRONGLY_CONTINUOUS),
        ("spectrum vline re=-1\ndelta 1/2\nsearch_depth 100000\n", Verdict.NOT_STRONGLY_CONTINUOUS),
        ("spectrum vline re=0\ndelta 1\nsearch_depth 100000\n", Verdict.NOT_STRONGLY_CONTINUOUS),
    ],
)
def test_witness_costs_the_gate_levels_at_any_depth(text, verdict, monkeypatch):
    # the witness search, its re-check and the persistence certificate stop
    # where the tail certificate closes, so only check_not_uniform's levels
    # 0..n_max are built
    calls = []
    level_view = levels.level_view
    monkeypatch.setattr(levels, "level_view", lambda Z, n: calls.append(n) or level_view(Z, n))
    cfg = parse_config(text)
    assert classify(cfg.spectrum, cfg.params).verdict is verdict
    assert sorted(calls) == list(range(cfg.params.n_max + 1))


def test_seed_below_the_float_range_reads_as_modulus_zero():
    # e^(-10^400) is 0 in floats, where |1 - z|^2 = 1: the point at angle 3
    # on the unit circle (|1 - z|^2 = 2 - 2 cos 3, about 3.98) comes first
    cfg = parse_config(f"spectrum point re=-{10**400} im=1\nspectrum point re=0 im=3\n")
    seeds = [p for _, p in search_seeds(LevelCache(cfg.spectrum), (0,))]
    assert [(p.log_mod, p.angle) for p in seeds] == [(0, PiLinear(3)), (-(10**400), PiLinear(1))]
