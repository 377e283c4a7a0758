"""Differential tests of the certified enclosures against mpmath and the
term-by-term Fraction Taylor loop."""

import math

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicspec.cli import format_g
from dyadicspec.exactnum import PiLinear, reduce_mod_2pi
from dyadicspec import levels
from dyadicspec.realbounds import (
    EXP_ARG_CAP,
    ComputationLimit,
    _cos_ints,
    _exp_ints,
    abs1m_sq_bounds,
    compare_abs1m_sq,
    cos_bounds,
    even_key,
    exp_bounds,
    interval_sqrt,
    sqrt_bounds,
    sqrt_ints,
)

digits = st.integers(min_value=1, max_value=60)


def fraction_exp_bounds(x: F, digits: int) -> tuple[F, F]:
    """Reference: the Taylor sum of exp in Fractions, term by term, with the
    same stopping rule and tail; exp_bounds must return exactly this."""
    if x == 0:
        return F(1), F(1)
    eps = F(1, 10**digits)
    ax = abs(x)
    term = F(1)
    s = F(1)
    k = 0
    while k < 2 * ax + 2 or 2 * abs(term) * ax / (k + 1) > eps / 2:
        k += 1
        term = term * x / k
        s += term
    tail = 2 * abs(term) * ax / (k + 1)
    return s - tail, s + tail


def mp_fraction(v) -> F:
    man, exp = v.man_exp  # of |v|
    f = F(int(man)) * F(2) ** int(exp)
    return -f if v < 0 else f


def assert_contains(lo: F, hi: F, value, dps: int):
    """lo <= value <= hi up to mpmath's own relative error."""
    v = mp_fraction(value)
    slack = abs(v) * F(1, 10 ** (dps - 10)) + F(1, 10 ** (dps - 10))
    assert lo <= v + slack and v - slack <= hi, (float(lo), float(hi), value)


def assert_encloses(lo: F, hi: F, value, digits: int, dps: int):
    """assert_contains, and the width is at most 10**-digits."""
    assert_contains(lo, hi, value, dps)
    assert hi - lo <= F(1, 10**digits)


@given(st.fractions(min_value=-1000, max_value=500, max_denominator=10**6), digits)
@example(F(-40401, 100), 6)
@example(F(500), 60)
@example(F(-1000), 60)
@settings(max_examples=80, deadline=None)
def test_exp_bounds_contains_mpmath_value(x, d):
    # exp(500) has 218 integer digits, on top of which come d fractional ones
    dps = 218 + d + 40
    lo, hi = exp_bounds(x, d)
    with mpmath.workdps(dps):
        value = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
    assert_encloses(lo, hi, value, d, dps)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=10**4), st.integers(1, 30))
@example(F(1414214, 10**6), 6)
@example(F(-1, 3), 1)
@example(F(7), 17)
@settings(max_examples=60, deadline=None)
def test_exp_bounds_equals_fraction_loop(x, d):
    assert exp_bounds(x, d) == fraction_exp_bounds(x, d)


def _pair(x: F) -> tuple[int, int]:
    """The (numerator, denominator) pair that `_exp_ints` takes."""
    return x.numerator, x.denominator


def assert_exp_ints_encloses(x: F, d: int):
    """_exp_ints(x, d) encloses exp(x) with width <= 10**-d.  mpmath works
    at the bits of den plus those of hi plus a margin: a fixed precision
    runs out where exp(x) has thousands of integer bits."""
    lo, hi, den = _exp_ints(_pair(x), d)
    with mpmath.workprec(den.bit_length() + hi.bit_length() + 64):
        value = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
        assert lo <= value * den <= hi, (x, d)
    assert (hi - lo) * 10**d <= den


@given(
    st.one_of(
        st.fractions(min_value=-(10**5), max_value=10**3, max_denominator=10**6),
        st.fractions(min_value=-70, max_value=70, max_denominator=2**40),
    ),
    st.sampled_from([1, 6, 15, 45, 135]),
)
@example(F(0), 6)
@example(F(1, 10**9), 45)
@example(F(-1, 10**9), 45)
@example(F(2000), 135)
@example(F(-20000), 6)
@settings(max_examples=120, deadline=None)
def test_exp_ints_contains_mpmath_value(x, d):
    assert_exp_ints_encloses(x, d)


@pytest.mark.parametrize("d", [1, 6, 15, 45, 135])
def test_exp_ints_underflow_branch(d):
    # below -p the kernel returns [0, 2**-p]; read p off that branch
    p = _exp_ints((-(10**6), 1), d)[2].bit_length() - 1
    assert p >= math.log2(10) * d
    assert _exp_ints((-p, 1), d) == (0, 1, 1 << p)
    for x in (F(-p), F(-(p - 1)), F(1, 2) - p):
        assert_exp_ints_encloses(x, d)


def test_exp_ints_refuses_arguments_above_the_cap():
    # one ComputationLimit, the one the CLI ends Inconclusive on
    assert levels.ComputationLimit is ComputationLimit
    for x in (F(EXP_ARG_CAP) + F(1, 10**30), F(10**20 - 1), F(3 * 10**40, 7)):
        with pytest.raises(ComputationLimit):
            _exp_ints(_pair(x), 15)
        with pytest.raises(ComputationLimit):
            exp_bounds(x, 6)
        assert _exp_ints(_pair(-x), 15)[0] == 0  # the negative side returns early


@pytest.mark.parametrize("R", [F(60), F(639, 10), F(64), F(641, 10), F(70), F(201, 2), F(200)])
def test_symbolic_constant_print_does_not_depend_on_the_exp_kernel(R):
    # the report prints R * exp_bounds(R, 6)[1]; above |x| = 64 its endpoint
    # comes from _exp_ints, whose slack is too small to move a printed digit
    got = R * exp_bounds(R, 6)[1]
    want = R * fraction_exp_bounds(R, 6)[1]
    for d in (12, 17):
        assert format_g(got, d) == format_g(want, d)


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.fractions(min_value=-200, max_value=200, max_denominator=10**6),
    digits,
)
@example(F(1, 7), F(-6, 7), 60)
@example(F(-3, 2), F(5), 15)
@example(F(0), F(99999, 100000), 45)
@example(F(1000), F(0), 17)
@settings(max_examples=120, deadline=None)
def test_cos_bounds_contains_mpmath_value(q0, q1, d):
    dps = d + 60
    lo, hi = cos_bounds(PiLinear(q0, q1), d)
    with mpmath.workdps(dps):
        angle = mpmath.mpf(q0.numerator) / q0.denominator + mpmath.pi * q1.numerator / q1.denominator
        value = mpmath.cos(angle)
    assert_encloses(lo, hi, value, d, dps)


@pytest.mark.parametrize(
    "q1, c",
    [
        (F(0), F(1)),
        (F(1, 3), F(1, 2)),
        (F(-1, 2), F(0)),
        (F(2, 3), F(-1, 2)),
        (F(1), F(-1)),
        (F(7, 3), F(1, 2)),
        (F(-13, 2), F(0)),
        (F(-10, 3), F(-1, 2)),
        (F(-5), F(-1)),
        (F(8), F(1)),
    ],
)
def test_cos_bounds_exact_at_niven_angles(q1, c):
    assert cos_bounds(PiLinear(0, q1), 20) == (c, c)


NIVEN_COS = {F(0): F(1), F(1, 3): F(1, 2), F(1, 2): F(0), F(2, 3): F(-1, 2), F(1): F(-1)}


def fraction_abs1m_sq_bounds(log_mod: F, angle: PiLinear, digits: int) -> tuple[F, F]:
    """Reference: 1 - 2ec + e**2 over the exp and cos enclosures in Fractions;
    abs1m_sq_bounds must return exactly this.  The exp enclosure is the
    kernel's, `_exp_ints`, which abs1m_sq_bounds combines in integers."""
    a = reduce_mod_2pi(angle)
    if log_mod == 0 and a.q0 == 0 and abs(a.q1) in NIVEN_COS:
        exact = 2 - 2 * NIVEN_COS[abs(a.q1)]
        return exact, exact
    el, eh, ed = _exp_ints(_pair(log_mod), digits + 2)
    elo, ehi = F(el, ed), F(eh, ed)
    clo, chi = cos_bounds(angle, digits + 2)
    lo = min(1 - 2 * e * chi + e * e for e in (elo, ehi))
    hi = max(1 - 2 * e * clo + e * e for e in (elo, ehi))
    if elo <= chi <= ehi:
        lo = min(lo, 1 - chi * chi)
    return max(lo, F(0)), hi


def fraction_compare_abs1m_sq(log_mod: F, angle: PiLinear, threshold: F) -> int:
    a = reduce_mod_2pi(angle)
    if log_mod == 0 and threshold == 2 and not (a.q0 == 0 and abs(a.q1) in NIVEN_COS):
        mag = -a if a.sign() < 0 else a
        return (mag - PiLinear(0, F(1, 2))).sign()
    digits = 15
    while True:
        lo, hi = fraction_abs1m_sq_bounds(log_mod, angle, digits)
        if lo > threshold:
            return 1
        if hi < threshold:
            return -1
        if lo == hi:
            return 0
        digits *= 3


log_mods = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-60, max_value=60, max_denominator=1000),
    st.fractions(min_value=-400, max_value=400, max_denominator=7),
)
niven_angles = st.builds(
    lambda q1, k, sign: PiLinear(0, sign * q1 + 2 * k),
    st.sampled_from(sorted(NIVEN_COS)),
    st.integers(-3, 3),
    st.sampled_from([-1, 1]),
)
angles = st.one_of(
    niven_angles,
    st.builds(
        PiLinear,
        st.fractions(min_value=-20, max_value=20, max_denominator=1000),
        st.fractions(min_value=-9, max_value=9, max_denominator=64),
    ),
)


@given(log_mods, angles, st.integers(min_value=1, max_value=45))
@example(F(-9, 32), PiLinear(0, -1), 15)
@example(F(-9, 32), PiLinear(0, 1), 45)
@example(F(0), PiLinear(0, F(-2, 3)), 15)
@example(F(0), PiLinear(F(1, 3), 0), 15)
@example(F(300), PiLinear(F(1, 7), F(5, 3)), 6)
@example(F(1, 10**4), PiLinear(F(-1, 10**4), 0), 1)  # z near 1: lower end clamped at 0
@settings(max_examples=200, deadline=None)
def test_abs1m_sq_bounds_equals_fraction_formula(log_mod, angle, d):
    assert abs1m_sq_bounds(log_mod, angle, d) == fraction_abs1m_sq_bounds(log_mod, angle, d)


@given(st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=1000), angles, digits)
@example(F(10**4), PiLinear(0, F(1, 3)), 15)
@example(F(-(10**4)), PiLinear(F(1, 7), 0), 45)
@example(F(-20000, 2**8), PiLinear(0, F(-5, 7)), 30)
@example(F(1, 10**4), PiLinear(F(-1, 10**4), 0), 1)
@settings(max_examples=60, deadline=None)
def test_abs1m_sq_bounds_contains_mpmath_value(log_mod, angle, d):
    lo, hi = abs1m_sq_bounds(log_mod, angle, d)
    # the integer digits of |1 - z|**2 (up to e**(2 * 10**4)) on top of d
    dps = max(hi.numerator.bit_length() - hi.denominator.bit_length(), 0) // 3 + d + 40
    with mpmath.workdps(dps):
        q0, q1 = angle.q0, angle.q1
        theta = mpmath.mpf(q0.numerator) / q0.denominator + mpmath.pi * q1.numerator / q1.denominator
        z = mpmath.exp(mpmath.mpc(mpmath.mpf(log_mod.numerator) / log_mod.denominator, theta))
        value = abs(1 - z) ** 2
    assert_contains(lo, hi, value, dps)


@given(log_mods, angles, st.sampled_from([15, 45]), st.integers(0, 3))
@example(F(-9, 32), PiLinear(0, -1), 15, 0)
@example(F(0), PiLinear(F(1, 5), F(1, 2)), 15, 2)
@example(F(0), PiLinear(0, F(1, 3)), 15, 0)
@settings(max_examples=150, deadline=None)
def test_compare_abs1m_sq_matches_oracle(log_mod, angle, d, which):
    # thresholds at the endpoints of an enclosure, where the first
    # comparisons cannot separate, plus 2 (the sign-of-cosine fast path)
    lo, hi = fraction_abs1m_sq_bounds(log_mod, angle, d)
    threshold = (lo, hi, (lo + hi) / 2, F(2))[which]
    assert compare_abs1m_sq(log_mod, angle, threshold) == fraction_compare_abs1m_sq(
        log_mod, angle, threshold
    )


@given(angles, st.sampled_from([15, 30, 42]))
@example(PiLinear(0, 1), 15)
@example(PiLinear(0, F(-2, 3)), 42)
@example(PiLinear(F(1, 3), 0), 30)
@example(PiLinear(F(-3), 1), 30)  # q0 and q1 of opposite signs
@example(PiLinear(F(1, 10**40), 0), 42)  # the bracket straddles 0
@settings(max_examples=150, deadline=None)
def test_cos_ints_is_even_and_contains_mpmath_value(angle, d):
    # a and -a share one enclosure (and one key), so a sup encloses cos
    # once per |angle|; the enclosure holds cos at the digits the sups use
    a = reduce_mod_2pi(angle)
    b = reduce_mod_2pi(-a)
    assert _cos_ints(a, d) == _cos_ints(b, d)
    assert even_key(a) == even_key(b)
    lo, hi, p = _cos_ints(a, d)
    dps = d + 60
    with mpmath.workdps(dps):
        theta = mpmath.mpf(a.q0.numerator) / a.q0.denominator + mpmath.pi * a.q1.numerator / a.q1.denominator
        value = mpmath.cos(theta)
    assert_encloses(F(lo, 1 << p), F(hi, 1 << p), value, d, dps)


positive_fractions = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**9),
    st.builds(lambda n, k: F(n, 1 << k), st.integers(0, 10**40), st.integers(0, 300)),
)


def fraction_sqrt_bounds(x: F, digits: int) -> tuple[F, F]:
    """Reference: the Fraction body sqrt_bounds had, one isqrt of the value."""
    if x < 0:
        raise ValueError("sqrt of negative value")
    if x == 0:
        return F(0), F(0)
    scale = 10**digits
    r = math.isqrt((x.numerator * scale * scale) // x.denominator)
    return F(r, scale), F(r + 1, scale)


@given(positive_fractions, positive_fractions, st.sampled_from([1, 6, 15, 30, 40]), st.integers(0, 64))
@example(F(0), F(0), 40, 0)
@example(F(-1, 10**50), F(4), 40, 3)  # a lower end below 0 is clipped
@settings(max_examples=150, deadline=None)
def test_sqrt_ints_are_the_ends_of_sqrt_bounds(x, y, d, k):
    # the winners' integers need not be reduced: scale both by 2**k
    x, y = min(x, y), max(x, y)
    scale = 10**d
    want = fraction_sqrt_bounds(max(x, F(0)), d)[0], fraction_sqrt_bounds(y, d)[1]
    a, b = sqrt_ints((x.numerator << k, x.denominator << k), (y.numerator << k, y.denominator << k), d)
    assert (F(a, scale), F(b, scale)) == want
    assert interval_sqrt((x, y), d) == want
    assert sqrt_bounds(y, d) == fraction_sqrt_bounds(y, d)
    with pytest.raises(ValueError):
        sqrt_bounds(-y - 1, d)
