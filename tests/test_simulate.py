import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from dyadicspec.exactnum import PiLinear, compare, reduce_mod_2pi
from dyadicspec.levels import LevelCache, LevelPoint
from dyadicspec.simulate import (
    DiagonalModel,
    DyadicRangeError,
    DyadicTime,
    TestVector,
    apply_semigroup,
    continuity_trace,
    decompose,
    joint_spectrum_residual,
    multipliers,
    norm_bound_check,
    quasi_uniform_cover,
)
from dyadicspec.spectrum import ConsistencyError
from dyadicspec.threads import Thread


def model_for(Z, caches={}):
    thr1 = Thread(0, LevelPoint(F(0), PiLinear(0, 0)))
    thr2 = Thread(0, LevelPoint(F(0), PiLinear(0, 0)), bits=(1,))
    return DiagonalModel(Z, (thr1, thr2), block_dim=2, level_cap=34)


def test_dyadic_time_validation():
    assert DyadicTime.from_fraction(F(3, 8)) == DyadicTime(3, 3)
    assert DyadicTime.from_fraction(6) == DyadicTime(6, 0)
    with pytest.raises(ValueError):
        DyadicTime.from_fraction(F(1, 3))
    with pytest.raises(ValueError):
        DyadicTime.from_fraction(0)
    with pytest.raises(ValueError):
        DyadicTime(4, 1)


def test_decompose_examples():
    d = decompose(DyadicTime.from_fraction(F(3, 8)))
    assert (d.first, d.last, d.odd_part) == (2, 3, 3)
    assert d.exponents == (2, 3)
    d = decompose(DyadicTime.from_fraction(F(1, 2)))
    assert (d.first, d.last, d.odd_part) == (1, 1, 1)
    d = decompose(DyadicTime.from_fraction(F(1, 32) + F(1, 512)))
    assert (d.first, d.last, d.odd_part) == (5, 9, 17)
    with pytest.raises(DyadicRangeError):
        decompose(DyadicTime.from_fraction(9), cap=F(8))


def test_decompose_random_identities():
    rng = random.Random(3)
    for _ in range(400):
        m = rng.randrange(0, 12)
        k = rng.randrange(1, 8 * 2**m)
        t = DyadicTime.from_fraction(F(k, 2**m))
        d = decompose(t, cap=F(8))
        assert d.odd_part % 2 == 1
        assert t.value == F(d.odd_part) * F(2) ** (-d.last)
        assert d.first <= d.last
        assert list(d.exponents) == sorted(set(d.exponents))


def test_decompose_checks_its_bits_add_up():
    class Skewed(DyadicTime):
        # a value that disagrees with the stored k / 2^m
        @property
        def value(self):
            return F(self.k + 2, 2**self.m)

    with pytest.raises(ConsistencyError):
        decompose(Skewed(3, 3))


def test_semigroup_law_exact(roots2k):
    model = model_for(roots2k)
    rng = random.Random(17)
    done = 0
    while done < 80:
        s = F(rng.randrange(1, 64), 2 ** rng.randrange(0, 8))
        t = F(rng.randrange(1, 64), 2 ** rng.randrange(0, 8))
        if s + t >= 2**30:
            continue
        done += 1
        a = multipliers(model, DyadicTime.from_fraction(s))
        b = multipliers(model, DyadicTime.from_fraction(t))
        c = multipliers(model, DyadicTime.from_fraction(s + t))
        for (lma, anga), (lmb, angb), (lmc, angc) in zip(a, b, c):
            assert lma + lmb == lmc
            assert compare(reduce_mod_2pi(anga + angb), angc) == 0


def test_apply_identity_and_scaling(roots2k):
    model = model_for(roots2k)
    v = TestVector.from_rows([[1, 0], [0, 1]])
    # thread 1 is constantly at the fixed point: its block never moves
    w = apply_semigroup(model, DyadicTime.from_fraction(F(1, 2)), v)
    assert np.allclose(w.blocks[0], v.blocks[0])
    assert np.allclose(w.blocks[1], -v.blocks[1], atol=1e-12)
    assert v.weights.tolist() == [1.0, 1.0]


def test_norm_bound_examples(roots2k, solenoid, rectangle):
    for Z in (roots2k, solenoid):
        model = model_for(Z)
        for n in (0, 3, 17, 30):
            nb = norm_bound_check(model, n)
            assert nb.ok and nb.max_log_mod == 0
    corner = Thread(0, LevelPoint(F(-1), PiLinear(0, 1)))
    model = DiagonalModel(rectangle, (corner,), block_dim=1, level_cap=34)
    for n in (0, 5, 30):
        nb = norm_bound_check(model, n)
        assert nb.ok and nb.measured <= 1.0


def test_quasi_uniform_cover_found_rectangle(rectangle):
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        cov = quasi_uniform_cover(rectangle, lambda n: n, lambda n: 1, eps, 1, 50)
        assert cov.status == "found"
        assert len(cov.indices) <= 3
        assert cov.sup_sq[1] < eps**2


def test_quasi_uniform_cover_absent(solenoid, roots2k):
    for Z in (solenoid, roots2k):
        cov = quasi_uniform_cover(Z, lambda n: n, lambda n: 1, F(1, 2), 1, 50)
        assert cov.status == "absent"
        assert cov.absent_witness is not None


def test_residual_rectangle(rectangle):
    rep = joint_spectrum_residual(rectangle, [1.0, 1.0, 1.0], 10000)
    assert rep.residual < 1e-6
    assert rep.consistent

    rep = joint_spectrum_residual(rectangle, [5.0], 10000)
    assert rep.residual >= 1

    rep = joint_spectrum_residual(rectangle, [1.0, -1.0], 10000)
    assert rep.consistent  # (-1)^2 == 1 numerically
    assert rep.residual > 0.3  # -1 is far from the level-1 image

    rep = joint_spectrum_residual(rectangle, [1.0, 0.5], 2000)
    assert not rep.consistent and rep.consistency == (False,)


def test_residual_argmin_near_zero(rectangle):
    rep = joint_spectrum_residual(rectangle, [1.0, 1.0], 10000)
    assert abs(rep.argmin) < 1e-9


def test_continuity_trace_shapes(roots2k):
    model = model_for(roots2k)
    times = [DyadicTime.from_fraction(F(1, 2**m)) for m in (1, 2, 3)]
    rows = continuity_trace(model, times)
    assert len(rows) == 6
    # principal-fixed-point block never leaves 1
    assert all(val == 0 for t, k, val in rows if k == 0)
