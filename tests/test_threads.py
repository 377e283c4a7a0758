import math
import random
from fractions import Fraction as F

import pytest

from dyadicspec import threads
from dyadicspec.exactnum import PiLinear, compare, reduce_mod_2pi
from dyadicspec.levels import LevelCache, LevelPoint, level_set, sup_abs_one_minus
from dyadicspec.realbounds import compare_abs1m_sq
from dyadicspec.spectrum import BOUNDED_PARTS, Point, SpectrumSet, VLine
from dyadicspec.threads import (
    InfeasibleThread,
    Thread,
    convergence_rate,
    divergence_search,
    evaluate,
    feasible_branches,
    persistence_certificate,
    search,
    search_seeds,
    step_point,
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


def test_rate_requires_principal_tail(roots2k):
    ck = LevelCache(roots2k)
    th = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1, 1), tail_principal=False)
    with pytest.raises(ValueError):
        convergence_rate(ck, th, 10)


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
    prefix = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1, 1), tail_principal=False)
    assert evaluate(ck, prefix, 2).angle == PiLinear(0, F(-1, 2))
    with pytest.raises(ValueError, match="prefix ends before level 3") as err:
        evaluate(ck, prefix, 3)
    assert not isinstance(err.value, InfeasibleThread)


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


def test_bounded_cut_returns_what_the_full_search_returns():
    # on bounded section parts divergence_search may skip the search after
    # one sup over level `depth`; it must still return exactly the thread,
    # or the None, of the search it skips
    rng = random.Random(1303)
    spectra = [random_spectrum(rng) for _ in range(24)]
    bounded = [all(isinstance(p.section, BOUNDED_PARTS) for p in Z.primitives) for Z in spectra]
    assert any(bounded) and not all(bounded)

    def direct(cache, depth, delta, budget):
        delta_sq = delta**2

        def keep(level, p):
            return compare_abs1m_sq(p.log_mod, p.angle, delta_sq) >= 0

        seeds = search_seeds(cache, range(min(depth, max(9, depth * 2 // 3))))
        return search(cache, seeds, depth, keep, budget)

    grid = [(d, delta, 20000) for d in (1, 4, 8, 12) for delta in (F(1, 2), F(1), F(7, 5), F(2))]
    cut = found = 0
    for Z, is_bounded in zip(spectra, bounded):
        cache = LevelCache(Z)
        for depth, delta, budget in grid + [(12, F(1, 2), 5)]:
            th = divergence_search(cache, depth, delta, budget)
            assert th == direct(cache, depth, delta, budget), (Z, depth, delta, budget)
            if is_bounded:
                cut += sup_abs_one_minus(cache.level(depth), 15).sq_hi < delta**2
                found += th is not None
    # on bounded spectra the cut skips some searches and leaves others to succeed
    assert cut and found


@pytest.mark.parametrize(
    "Z, new_caches",
    [
        (SpectrumSet((VLine(F(0)),)), 0),
        (SpectrumSet((VLine(F(0)), Point(F(-1), PiLinear(0, F(1, 2))))), 1),
    ],
)
def test_persistence_certificate_builds_a_cache_only_for_a_proper_part(Z, new_caches, monkeypatch):
    # on a one-primitive spectrum the caller's cache holds the primitive's own levels
    cache = LevelCache(Z)
    th = divergence_search(cache, 10, F(7, 5))
    built = []

    def counted(sub):
        built.append(sub)
        return LevelCache(sub)

    monkeypatch.setattr(threads, "LevelCache", counted)
    assert persistence_certificate(Z, cache, th, 10) == (VLine(F(0)), None)
    assert len(built) == new_caches
