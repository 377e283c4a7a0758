"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import functools
import random
import time
from fractions import Fraction as F

import mpmath
import pytest

from dyadicspec.classify import ClassifyParams, Verdict, classify
from dyadicspec.exactnum import PiLinear, compare, reduce_mod_2pi
from dyadicspec.levels import (
    LevelCache,
    LevelPoint,
    antipodal_set,
    circle_section,
    enumerate_points,
    level_set,
    sup_abs_one_minus,
)
from dyadicspec.realbounds import compare_abs1m_sq, interval_sqrt
from dyadicspec.simulate import (
    DyadicTime,
    decompose,
    joint_spectrum_residual,
    model_from_threads,
    multipliers,
    norm_bound_check,
    quasi_uniform_cover,
)
from dyadicspec.spectrum import (
    PrimeFamily,
    antipode_level_union,
    image_closedness,
    section_antipode_condition,
    section_antipode_levels,
    section_representatives,
)
from dyadicspec.threads import (
    Thread,
    divergence_search,
    evaluate,
    feasible_branches,
    step_point,
    verify_witness,
)
from dyadicspec.towers import (
    Tower,
    inverse_limit,
    lim1_vanishes,
    middle_group_bounds,
)

from conftest import random_spectrum
from test_levels import _eventual_image
from test_towers import brute_component_survives, brute_mittag_leffler

mpmath.mp.dps = 50


def criterion(num: int):
    """Print the FAIL line when a criterion's assertions do not hold."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL")
                raise

        return wrapper

    return deco


def grow_thread(cache, seed, cap):
    bits = []
    p = seed
    for level in range(0, cap):
        branches = feasible_branches(cache, level, p)
        assert branches, "every level point must extend"
        bit, p = branches[0]
        bits.append(bit)
    return Thread(0, seed, tuple(bits))


def example_model(Z, cap=34):
    from dyadicspec.levels import component_sup_candidates

    cache = LevelCache(Z)
    seeds = []
    for c in cache.level(0).components:
        seeds.extend(component_sup_candidates(c))
    threads = tuple(grow_thread(cache, s, cap) for s in dict.fromkeys(seeds))
    return model_from_threads(cache, threads, level_cap=cap)


@criterion(1)
def test_criterion_1_roots2k(roots2k):
    t0 = time.monotonic()
    for n in range(0, 11):
        pts = enumerate_points(level_set(roots2k, n))
        assert len(pts) == 2**n
        expected = {F(2 * k, 2**n) % 2 for k in range(2**n)}
        assert {p.angle.q1 % 2 for p in pts} == expected
        assert all(p.angle.q0 == 0 and p.log_mod == 0 for p in pts)
    for n in range(1, 11):
        assert not antipodal_set(level_set(roots2k, n)).is_empty()
    rep = classify(roots2k)
    assert rep.verdict is Verdict.NOT_STRONGLY_CONTINUOUS
    assert rep.witness is not None
    cache = LevelCache(roots2k)
    assert verify_witness(cache, rep.witness.thread, rep.witness.depth, rep.witness.delta)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 1: PASS - roots2k levels are exact 2^n-th roots, antipodes at "
        f"1..10, verdict NotStronglyContinuous with verified witness ({elapsed:.2f}s)"
    )


@criterion(2)
def test_criterion_2_solenoid(solenoid):
    t0 = time.monotonic()
    m = section_antipode_levels(solenoid, F(0), 12)
    assert sorted(m.levels) == list(range(0, 13))
    assert m.tail_all_from == 0  # certified infinite tail
    rep = classify(solenoid)
    assert rep.verdict is Verdict.NOT_STRONGLY_CONTINUOUS
    cache = LevelCache(solenoid)
    th = divergence_search(cache, 30, F(7, 5))
    assert th is not None
    p = evaluate(cache, th, th.base_level)
    for n in range(th.base_level, 31):
        if n > th.base_level:
            p = step_point(p, th.bit_at(n))
        # exact check |1 - point|^2 >= 2
        assert compare_abs1m_sq(p.log_mod, p.angle, F(2)) >= 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 2: PASS - solenoid M_0 has a certified all-levels tail, verdict "
        f"NotStronglyContinuous, depth-30 witness with |1-point|^2 >= 2 ({elapsed:.2f}s)"
    )


@criterion(3)
def test_criterion_3_rectangle(rectangle):
    K = 4
    digits = 50
    crossover = None
    max_err = 0.0
    constant = F(0)
    sups = []
    for n in range(0, 41):
        sup = sup_abs_one_minus(_eventual_image(rectangle, n, K), digits)
        lo, hi = interval_sqrt((sup.sq_lo, sup.sq_hi), digits)
        sups.append((n, lo, hi))
        constant = max(constant, hi * 2**n)
        x = mpmath.mpf(1) / 2**n
        corner_unit = abs(1 - mpmath.exp(1j * mpmath.pi * x))
        corner_deep = abs(1 - mpmath.exp(-x * (1 + 1j * mpmath.pi)))
        formula = max(corner_unit, corner_deep)
        # interval width is far below 1e-12; compare midpoints
        u_mid = (lo + hi) / 2
        err = abs(float(u_mid) - float(formula))
        max_err = max(max_err, err)
        assert err < 1e-12, (n, err)
        if crossover is None and corner_deep >= corner_unit:
            crossover = n
        if crossover is not None and n >= crossover:
            assert abs(float(u_mid) - float(corner_deep)) < 1e-12
    # certified rate: u_n <= C / 2^n along the whole table
    for n, lo, hi in sups:
        assert hi * 2**n <= constant
    rep = classify(rectangle)
    assert rep.verdict is Verdict.UNIFORMLY_CONTINUOUS
    union = antipode_level_union(rectangle, 10)
    assert union.holds is True
    assert union.union_levels <= {0, 1}
    assert all(image_closedness(rectangle, n).closed for n in range(0, 11))
    print(
        f"ACCEPTANCE 3: PASS - rectangle sup matches the two-corner formula to "
        f"{max_err:.2e} <= 1e-12 for n <= 40 (crossover at n={crossover}), rate "
        f"constant C ~ {float(constant):.6f}, verdict UniformlyContinuous, section "
        f"level union {sorted(union.union_levels)}"
    )


@criterion(4)
def test_criterion_4_primefamily(primefamily):
    pf = primefamily.primitives[0]
    schedule = {pf.n_of(j): j for j in pf.primes()}
    top = max(schedule) + 3
    for n in range(0, top + 1):
        A = antipodal_set(level_set(primefamily, n))
        if n in schedule:
            j = schedule[n]
            pts = enumerate_points(A)
            assert pts is not None and len(pts) == 2, (n, pts)
            expected = reduce_mod_2pi(pf.alpha(j).scaled(F(1, 2**n)))
            anti = reduce_mod_2pi(expected + PiLinear(0, 1))
            got = {(p.angle.q0, p.angle.q1) for p in pts}
            assert got == {(expected.q0, expected.q1), (anti.q0, anti.q1)}, n
        else:
            assert A.is_empty(), n
    rep = classify(primefamily)
    assert rep.verdict is Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM
    print(
        f"ACCEPTANCE 4: PASS - prime family antipodal levels are exactly "
        f"{sorted(schedule)} up to {top}, each the pair +-exp(i a_j / 2^n_j), "
        f"verdict StronglyContinuousNotUniform"
    )


@criterion(5)
def test_criterion_5_antipodal_iff_shift(roots2k, solenoid, rectangle, primefamily):
    checked = 0
    builtins = (roots2k, solenoid, rectangle, primefamily)
    for Z in builtins:
        for n in range(0, 9):
            closed = image_closedness(Z, n).closed
            for t in section_representatives(Z):
                sec = circle_section(Z, n, t, check_consistency=closed)
                got = not antipodal_set(sec).is_empty()
                want = section_antipode_condition(Z, t, n)
                assert got == want, (Z, t, n)
                checked += 1
    rng = random.Random(20240817)
    spectra = 0
    while spectra < 200:
        Z = random_spectrum(rng)
        spectra += 1
        for n in range(0, 5):
            if not image_closedness(Z, n).closed:
                continue
            for t in section_representatives(Z):
                sec = circle_section(Z, n, t)
                got = not antipodal_set(sec).is_empty()
                want = section_antipode_condition(Z, t, n)
                assert got == want, (Z, t, n)
                checked += 1
    print(
        f"ACCEPTANCE 5: PASS - antipodal circle sections match the odd-shift "
        f"condition on {checked} (spectrum, section, level) triples, zero "
        f"discrepancies (200 random spectra + built-ins)"
    )


@criterion(6)
def test_criterion_6_dyadic_algebra(roots2k, solenoid, rectangle, primefamily):
    rng = random.Random(99)
    for _ in range(1000):
        m = rng.randrange(0, 16)
        k = rng.randrange(1, 8 * 2**m)
        t = DyadicTime.from_fraction(F(k, 2**m))
        d = decompose(t, cap=F(8))
        assert d.odd_part % 2 == 1
        assert t.value == F(d.odd_part) * F(2) ** (-d.last)
    models = {
        "roots2k": example_model(roots2k),
        "solenoid": example_model(solenoid),
        "rectangle": example_model(rectangle),
        "primefamily": example_model(primefamily),
    }
    law_checks = 0
    for name, model in models.items():
        for _ in range(25):
            s = F(rng.randrange(1, 64), 2 ** rng.randrange(0, 8))
            t = F(rng.randrange(1, 64), 2 ** rng.randrange(0, 8))
            a = multipliers(model, DyadicTime.from_fraction(s))
            b = multipliers(model, DyadicTime.from_fraction(t))
            c = multipliers(model, DyadicTime.from_fraction(s + t))
            for (lma, anga), (lmb, angb), (lmc, angc) in zip(a, b, c):
                assert lma + lmb == lmc
                assert compare(reduce_mod_2pi(anga + angb), angc) == 0
                law_checks += 1
        for n in range(0, 31):
            assert norm_bound_check(model, n).ok, (name, n)
    print(
        f"ACCEPTANCE 6: PASS - 1000 random dyadic decompositions exact (odd part, "
        f"t = S/2^L), semigroup law exact on {law_checks} block multipliers, norm "
        f"bound holds at levels 0..30 on all four examples"
    )


@criterion(7)
def test_criterion_7_quasi_uniform_covers(rectangle, solenoid, roots2k):
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        cov = quasi_uniform_cover(rectangle, eps, 1, 50)
        assert cov.status == "found" and len(cov.indices) <= 3, eps
    for Z, name in ((solenoid, "solenoid"), (roots2k, "roots2k")):
        cov = quasi_uniform_cover(Z, F(1, 2), 1, 50)
        assert cov.status == "absent", name
        assert cov.absent_witness is not None
        # re-verify the blocking thread exactly at every candidate level
        cache = LevelCache(Z)
        th = cov.absent_witness
        p = evaluate(cache, th, 0)
        for n in range(1, 51):
            p = step_point(p, th.bit_at(n))
            assert compare_abs1m_sq(p.log_mod, p.angle, F(1, 4)) >= 0, (name, n)
    print(
        "ACCEPTANCE 7: PASS - rectangle covered at eps 1/10, 1/100, 1/1000 with one "
        "index each; solenoid and roots2k provably uncoverable at eps 1/2 through "
        "bound 50 (blocking thread re-verified)"
    )


@criterion(8)
def test_criterion_8_joint_spectrum_residual(rectangle):
    rep = joint_spectrum_residual(rectangle, [1.0, 1.0, 1.0], 10000)
    assert rep.residual < 1e-6
    rep5 = joint_spectrum_residual(rectangle, [5.0], 10000)
    assert rep5.residual >= 1
    bad = joint_spectrum_residual(rectangle, [1.0, 0.5], 10000)
    assert not bad.consistent
    offimage = joint_spectrum_residual(rectangle, [1.0, -1.0], 10000)
    assert offimage.consistent and offimage.residual > 0.3
    print(
        f"ACCEPTANCE 8: PASS - residual {rep.residual:.2e} < 1e-6 for the constant-1 "
        f"prefix at density 10^4; {rep5.residual:.2f} >= 1 for lambda_0 = 5; "
        f"square-chain violations detected"
    )


@criterion(9)
def test_criterion_9_towers():
    doubling = Tower(((2,),))
    assert inverse_limit(doubling).rank == 0
    assert not lim1_vanishes(doubling)
    assert lim1_vanishes(Tower(((),)))
    mid = middle_group_bounds(True, 0)
    assert mid.determined and mid.rank == 0
    rng = random.Random(505)
    for _ in range(50):
        rank = rng.randint(1, 4)
        if rng.random() < 0.5:
            T = Tower((tuple(rng.randint(-3, 3) for _ in range(rank)),))
        else:
            period = rng.randint(1, 3)
            T = Tower(
                tuple(
                    tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(period)
                )
            )
        lim = inverse_limit(T)
        assert set(lim.surviving) == {
            i for i in range(rank) if brute_component_survives(T.component_cycle(i))
        }
        assert lim1_vanishes(T) == all(
            brute_mittag_leffler(T.component_cycle(i)) for i in range(rank)
        )
    print(
        "ACCEPTANCE 9: PASS - doubling tower: lim = 0 with lim^1 nonzero; zero "
        "tower: lim^1 = 0; middle-group bookkeeping gives 0; 50 random diagonal "
        "towers agree with the truncation oracle"
    )


@criterion(10)
def test_criterion_10_exact_comparisons():
    rng = random.Random(123456)
    pi50 = mpmath.pi
    agree = 0
    for _ in range(100000):
        a0 = F(rng.randint(-60, 60), rng.randint(1, 40))
        a1 = F(rng.randint(-60, 60), rng.randint(1, 40))
        b0 = F(rng.randint(-60, 60), rng.randint(1, 40))
        b1 = F(rng.randint(-60, 60), rng.randint(1, 40))
        got = compare(PiLinear(a0, a1), PiLinear(b0, b1))
        va = mpmath.mpf(a0.numerator) / a0.denominator + (
            mpmath.mpf(a1.numerator) / a1.denominator
        ) * pi50
        vb = mpmath.mpf(b0.numerator) / b0.denominator + (
            mpmath.mpf(b1.numerator) / b1.denominator
        ) * pi50
        if got == 0:
            assert (a0, a1) == (b0, b1)
            assert abs(va - vb) < mpmath.mpf(10) ** -45
        else:
            assert (va > vb) == (got > 0)
        agree += 1
    print(
        f"ACCEPTANCE 10: PASS - {agree} random exact comparisons agree with "
        f"50-digit evaluation"
    )
