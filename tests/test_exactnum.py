import copy
import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicspec.exactnum import (
    EQUAL,
    GREATER,
    LESS,
    ZERO,
    PiLinear,
    _MAX_BITS,
    _pi_fixed,
    _ratio_ints,
    _sign_int,
    ceil_ratio,
    compare,
    floor_ratio,
    parse,
    pi_bounds,
    reduce_mod_2pi,
    render,
    scale_pow2,
    to_float,
)

mpmath.mp.dps = 60
MP_PI = mpmath.pi


def mp_value(x: PiLinear):
    return (
        mpmath.mpf(x.q0.numerator) / x.q0.denominator
        + mpmath.mpf(x.q1.numerator) / x.q1.denominator * MP_PI
    )


def mp_pi_bounds(digits: int) -> tuple[F, F]:
    """Fractions lo < pi < hi, 10**-digits apart, from mpmath's pi."""
    with mpmath.workdps(digits + 20):
        n = int(mpmath.floor(MP_PI * 10**digits))
    return F(n, 10**digits), F(n + 1, 10**digits)


def mp_fraction(x: PiLinear) -> F:
    """The value as a Fraction: exact when rational, else from mpmath's pi
    at a working precision well past the triple's size."""
    if x.b == 0:
        return F(x.a, x.d)
    prec = 4 * max(x.a.bit_length(), x.b.bit_length(), x.d.bit_length()) + 1000
    with mpmath.workprec(prec):
        sign, man, exp, _ = ((mpmath.mpf(x.a) + x.b * MP_PI) / x.d)._mpf_
    return F(-man if sign else man) * F(2) ** exp


def nearest_double(x: PiLinear) -> float:
    """The double nearest to the value: mp_fraction rounded once, by Fraction."""
    return float(mp_fraction(x))


def assert_encloses(x: PiLinear, digits: int):
    """bounds(digits) holds the value and is at most 10**-digits wide."""
    lo, hi = x.bounds(digits)
    assert lo <= mp_fraction(x) <= hi
    assert hi - lo <= F(1, 10**digits)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def test_pi_bounds_width_and_value():
    lo, hi = pi_bounds(30)
    assert hi - lo <= F(1, 10**30)
    # pi = 3.14159265358979323846 26433...
    assert lo < F(31415926535897932385, 10**19)
    assert hi > F(31415926535897932384, 10**19)


def test_pi_fixed_brackets_pi_against_mpmath():
    # every power of two and its neighbours up to past the cap, and a sample between
    top = 70_000
    ps = {q + e for q in (1 << j for j in range(top.bit_length())) for e in (-1, 0, 1)}
    ps |= set(random.Random(7).sample(range(1, top + 1), 60)) | {top}
    with mpmath.workprec(top + 64):
        floor_top = int(mpmath.floor(mpmath.ldexp(MP_PI, top)))
    for p in sorted(ps - {0}):
        f = floor_top >> top - p  # floor(pi * 2**p): nested floors compose
        lo, hi = _pi_fixed(p)
        assert lo <= f < f + 1 <= hi and hi - lo <= 2, p
        if p & (p - 1) == 0 and p <= _MAX_BITS:
            # the refinement loops read the powers of two: the tightest brackets
            assert (lo, hi) == (f, f + 1), p


def test_float_and_bounds_of_coefficients_past_the_str_limit():
    # 4,400-digit coefficients, past CPython's int-to-str limit of 4,300 digits
    big = 10**4400 + 12345
    for x in (
        PiLinear(F(big, 3), F(-big, 7)),
        PiLinear(F(1, big), F(big + 1, big)),
        PiLinear(F(-big * 355, 113), big),  # pi - 355/113 times a huge scale
        PiLinear(0, F(big, 10**4400)),
    ):
        try:
            want = nearest_double(x)
        except OverflowError:
            with pytest.raises(OverflowError):
                float(x)
        else:
            assert float(x).hex() == want.hex()
        for digits in (1, 30, 5000):
            assert_encloses(x, digits)


def test_float_underflows_to_signed_zero_and_rounds_subnormals():
    tiny = F(1, 2**1200)
    # r below pi by less than 2**-64: the first pi bracket puts (pi - r) * tiny
    # on both sides of 0
    r = mp_pi_bounds(30)[0]
    for x, want in (
        (PiLinear(-3 * tiny, tiny), "0x0.0p+0"),  # (pi - 3) / 2**1200
        (PiLinear(3 * tiny, -tiny), "-0x0.0p+0"),
        (PiLinear(-r * tiny, tiny), "0x0.0p+0"),
        (PiLinear(r * tiny, -tiny), "-0x0.0p+0"),
        (PiLinear(0, F(1, 2**1074)), "0x0.0000000000003p-1022"),  # 3 * 2**-1074
        (PiLinear(F(-3, 2**1074), F(1, 2**1074)), "0x0.0p+0"),  # 0.14 * 2**-1074
        # (pi - 22/7) * 2**14 = -20.7..., so -21 * 2**-1074
        (PiLinear(F(-22, 7 * 2**1060), F(1, 2**1060)), "-0x0.0000000000015p-1022"),
    ):
        assert float(x).hex() == nearest_double(x).hex() == want


def test_convergent_of_pi_with_a_3002_digit_denominator():
    # |pi - p/q| < 1/q**2 needs about 20,000 bits of pi to separate
    n, d = mp_pi_bounds(7000)[0].as_integer_ratio()
    h0, h1, k0, k1 = 0, 1, 1, 0
    while len(str(k1)) < 3002:
        a, n, d = n // d, d, n % d
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
    r = F(h1, k1)
    lo, hi = mp_pi_bounds(6100)
    assert r < lo or r > hi
    side = 1 if r > hi else -1
    x = PiLinear(r, -1)  # r - pi, about 10**-6000: below the double range
    assert x.sign() == side and compare(PiLinear(r, 0), PiLinear(0, 1)) == side
    assert float(x).hex() == ("0x0.0p+0" if side > 0 else "-0x0.0p+0")
    assert reduce_mod_2pi(PiLinear(r, 0)) == (PiLinear(r, -2) if side > 0 else PiLinear(r, 0))
    assert floor_ratio(PiLinear(r, 0), PiLinear(0, 1)) == (1 if side > 0 else 0)


def test_compare_examples():
    # pi against the classic overestimate 355/113, decided by enclosure
    assert compare(PiLinear(0, 1), PiLinear(F(355, 113), 0)) == LESS
    assert compare(PiLinear(2, 3), PiLinear(2, 3)) == EQUAL
    assert compare(PiLinear(1, 0), PiLinear(0, 0)) == GREATER


def test_scale_pow2_examples():
    assert scale_pow2(PiLinear(0, 2), -1) == PiLinear(0, 1)
    assert scale_pow2(PiLinear(3, 0), 2) == PiLinear(12, 0)
    assert scale_pow2(PiLinear(F(1, 3), 5), -3) == PiLinear(F(1, 24), F(5, 8))


def test_reduce_examples():
    assert reduce_mod_2pi(PiLinear(0, 5)) == PiLinear(0, 1)  # boundary goes to +pi
    assert reduce_mod_2pi(PiLinear(0, 0)) == PiLinear(0, 0)
    assert reduce_mod_2pi(PiLinear(1, 2)) == PiLinear(1, 0)
    assert reduce_mod_2pi(PiLinear(0, -1)) == PiLinear(0, 1)  # -pi maps to +pi


def test_to_float_examples():
    lo, hi = to_float(PiLinear(0, 1), 5)
    assert F(314159, 100000) <= lo <= hi <= F(314160, 100000) + F(1, 10**5)
    assert hi - lo <= F(1, 10**5)
    lo, hi = to_float(PiLinear(F(1, 2), 0), 3)
    assert lo == hi == F(1, 2)
    lo, hi = to_float(PiLinear(-1, 1), 2)
    # pi - 1 = 2.1415926...
    assert lo <= F(2141593, 10**6) and hi >= F(2141592, 10**6)
    assert hi - lo <= F(1, 100)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_compare_agrees_with_high_precision_floats(a0, a1, b0, b1):
    a, b = PiLinear(a0, a1), PiLinear(b0, b1)
    got = compare(a, b)
    diff = mp_value(a) - mp_value(b)
    if got == EQUAL:
        assert a.q0 == b.q0 and a.q1 == b.q1
    else:
        assert (diff > 0) == (got == GREATER)
    # and with the library's own interval route at sufficient precision
    alo, ahi = to_float(a, 30)
    blo, bhi = to_float(b, 30)
    if ahi < blo:
        assert got == LESS
    elif bhi < alo:
        assert got == GREATER


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_reduce_is_idempotent_and_differs_by_even_pi(q0, q1):
    x = PiLinear(q0, q1)
    r = reduce_mod_2pi(x)
    assert reduce_mod_2pi(r) == r
    d = x - r
    assert d.q0 == 0 and d.q1 % 2 == 0
    # representative lies in (-pi, pi]
    assert compare(r, PiLinear(0, 1)) <= 0
    assert compare(r, PiLinear(0, -1)) > 0


@given(rationals, rationals, st.integers(min_value=-8, max_value=8))
@settings(max_examples=150, deadline=None)
def test_scale_pow2_roundtrip(q0, q1, k):
    x = PiLinear(q0, q1)
    assert scale_pow2(scale_pow2(x, k), -k) == x


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_render_parse_roundtrip(q0, q1):
    x = PiLinear(q0, q1)
    assert parse(render(x)) == x
    assert parse(render(x).replace(" ", "")) == x


def test_parse_variants():
    assert parse("pi") == PiLinear(0, 1)
    assert parse("-pi") == PiLinear(0, -1)
    assert parse("2-3*pi") == PiLinear(2, -3)
    assert parse("1/3 + 5/8*pi") == PiLinear(F(1, 3), F(5, 8))
    with pytest.raises(ValueError):
        parse("1 + 2*e")
    with pytest.raises(ValueError):
        parse("")
    for text in ("1/0*pi", "1/0", "1 + 3/0*pi"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse(text)


def test_floor_ratio_rational_and_irrational():
    assert floor_ratio(PiLinear(0, 7), PiLinear(0, 2)) == 3
    assert floor_ratio(PiLinear(0, -7), PiLinear(0, 2)) == -4
    assert floor_ratio(PiLinear(1, 1), PiLinear(0, 1)) == 1  # (1+pi)/pi
    assert ceil_ratio(PiLinear(1, 0), PiLinear(0, 1)) == 1  # 1/pi
    assert F(*_ratio_ints(PiLinear(0, 3), PiLinear(0, 2))) == F(3, 2)
    assert _ratio_ints(PiLinear(1, 3), PiLinear(0, 2)) is None


@given(rationals, rationals, st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16))
@settings(max_examples=150, deadline=None)
def test_floor_ratio_matches_floats(q0, q1, s1):
    x = PiLinear(q0, q1)
    s = PiLinear(0, s1)
    got = floor_ratio(x, s)
    approx = float(mp_value(x) / mp_value(s))
    assert abs(got - math.floor(approx)) <= 1  # float rounding tolerance
    # exact sandwich
    assert compare(s.scaled(got), x) <= 0
    assert compare(s.scaled(got + 1), x) > 0


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction bodies they replaced


def fraction_sign(x: PiLinear) -> int:
    """Reference: sign(q1) * sign(pi - r) with r = -q0/q1, decided against
    Fraction enclosures of pi of 20, 40, 80, ... digits."""
    if x.q1 == 0:
        return (x.q0 > 0) - (x.q0 < 0)
    if x.q0 == 0:
        return (x.q1 > 0) - (x.q1 < 0)
    r = -x.q0 / x.q1
    s1 = (x.q1 > 0) - (x.q1 < 0)
    digits = 20
    while True:
        lo, hi = mp_pi_bounds(digits)
        if r < lo:
            return s1
        if r > hi:
            return -s1
        digits *= 2


def fraction_compare(a: PiLinear, b: PiLinear) -> int:
    if a.q0 == b.q0 and a.q1 == b.q1:
        return EQUAL
    return fraction_sign(PiLinear(a.q0 - b.q0, a.q1 - b.q1))


def fraction_reduce(a: PiLinear) -> PiLinear:
    """Reference: m = ceil(q0/(2pi) + (q1 - 1)/2) from Fraction enclosures."""
    if a.q0 == 0:
        m = math.ceil(F(a.q1 - 1, 2))
        return PiLinear(0, a.q1 - 2 * m)
    shift = F(a.q1 - 1, 2)
    digits = 20
    while True:
        plo, phi = mp_pi_bounds(digits)
        if a.q0 > 0:
            xlo, xhi = a.q0 / (2 * phi) + shift, a.q0 / (2 * plo) + shift
        else:
            xlo, xhi = a.q0 / (2 * plo) + shift, a.q0 / (2 * phi) + shift
        if math.ceil(xlo) == math.ceil(xhi):
            return PiLinear(a.q0, a.q1 - 2 * math.ceil(xlo))
        digits *= 2


def assert_kernels_match(a: PiLinear, b: PiLinear):
    want = fraction_compare(a, b)
    assert compare(a, b) == want
    assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)
    assert a.sign() == fraction_sign(a)
    assert (a - b).sign() == want
    assert reduce_mod_2pi(a) == fraction_reduce(a)
    assert float(a).hex() == nearest_double(a).hex()


big_ints = st.integers(min_value=-(10**200), max_value=10**200)
big_rationals = st.builds(F, big_ints, st.integers(min_value=1, max_value=10**200))
# coefficients of up to 200 digits: small ones, big integers, big over big,
# and 20-digit numerators over 200-digit denominators
mixed_rationals = st.one_of(
    rationals,
    big_rationals,
    st.builds(F, big_ints),
    st.builds(F, st.integers(-(10**20), 10**20), st.integers(1, 10**200)),
)


@given(mixed_rationals, mixed_rationals, mixed_rationals, mixed_rationals)
@settings(max_examples=300, deadline=None)
def test_scalar_kernels_match_fraction_oracles(a0, a1, b0, b1):
    assert_kernels_match(PiLinear(a0, a1), PiLinear(b0, b1))
    assert_kernels_match(PiLinear(a0, 0), PiLinear(0, b1))


def pi_approximation(k: int, offset: int) -> F:
    """floor(pi * 10**k)/10**k moved by `offset` units: within (|offset| + 1)
    * 10**-k of pi, on either side."""
    lo, _ = mp_pi_bounds(k)
    return lo + F(offset, 10**k)


@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=-2, max_value=2),
    st.one_of(rationals, big_rationals).filter(lambda c: c != 0),
    mixed_rationals,
    mixed_rationals,
)
@settings(max_examples=300, deadline=None)
def test_kernels_match_oracles_near_pi_ties(k, offset, c, a0, a1):
    # a - b = c * (pi - r) with r within 3 * 10**-k of pi
    r = pi_approximation(k, offset)
    a = PiLinear(a0, a1)
    b = PiLinear(a0 + r * c, a1 - c)
    assert_kernels_match(a, b)
    assert_kernels_match(PiLinear(-r * c, c), ZERO)
    # q0 alone close to an odd multiple of pi: r * (2m + 1) against pi
    assert_kernels_match(PiLinear(r * (2 * offset + 1), 0), PiLinear(0, 2 * offset + 1))


@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([-1, 1]),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=300, deadline=None)
def test_reduce_matches_oracle_at_odd_pi_boundaries(k, m, side, digit):
    # (2m + 1) * pi +- digit * 10**-k sits just beside the cut at +-pi
    a = PiLinear(F(side * digit, 10**k), 2 * m + 1)
    got = reduce_mod_2pi(a)
    assert got == fraction_reduce(a)
    assert got.q0 == a.q0 and got.q1 == (1 if side < 0 else -1)
    assert reduce_mod_2pi(PiLinear(0, 2 * m + 1)) == PiLinear(0, 1)
    # the same boundary with the odd multiple of pi carried by q0
    r = pi_approximation(k, side * digit)
    b = PiLinear(r * (2 * m + 1), 0)
    assert reduce_mod_2pi(b) == fraction_reduce(b)
    for x in (a, b):
        assert float(x).hex() == nearest_double(x).hex()


def fraction_floor_ratio(x: PiLinear, s: PiLinear) -> int:
    """Reference: the Fraction body floor_ratio had, four quotients of
    enclosures of 20, 40, 80, ... digits."""
    r = _ratio_ints(x, s)
    if r is not None:
        return math.floor(F(*r))
    digits = 20
    while True:
        xlo, xhi = x.bounds(digits)
        slo, shi = s.bounds(digits)
        if slo > 0:
            quotients = (xlo / slo, xlo / shi, xhi / slo, xhi / shi)
            flo, fhi = math.floor(min(quotients)), math.floor(max(quotients))
            if flo == fhi:
                return flo
        digits *= 2


@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.one_of(rationals, big_rationals).filter(lambda c: c != 0),
    mixed_rationals,
    mixed_rationals,
)
@settings(max_examples=200, deadline=None)
def test_floor_ratio_matches_fraction_oracle_near_integers(k, offset, m, c, s0, s1):
    # x / s = m + c * (r - pi) / s with r within 3 * 10**-k of pi: a ratio
    # near the integer m when c is small against s
    s = PiLinear(s0, s1)
    if s.sign() == 0:
        s = PiLinear(1, s1)
    if s.sign() < 0:
        s = -s
    r = pi_approximation(k, offset)
    x = PiLinear(m * s.q0 + c * r, m * s.q1 - c)
    for y in (x, -x, PiLinear(c * r, -c)):
        assert floor_ratio(y, s) == fraction_floor_ratio(y, s), (y, s)
        assert ceil_ratio(y, s) == -fraction_floor_ratio(-y, s), (y, s)


# ---------------------------------------------------------------------------
# the integer triple against the Fraction-backed PiLinear it replaced


@dataclass(frozen=True)
class FractionPiLinear:
    """The Fraction-backed PiLinear that the triple (a, b, d) replaced: two
    reduced Fraction fields, with the same integer kernels read off them."""

    q0: F
    q1: F

    def __init__(self, q0=0, q1=0):
        object.__setattr__(self, "q0", F(q0))
        object.__setattr__(self, "q1", F(q1))

    def __add__(self, other):
        return FractionPiLinear(self.q0 + other.q0, self.q1 + other.q1)

    def __sub__(self, other):
        return FractionPiLinear(self.q0 - other.q0, self.q1 - other.q1)

    def __neg__(self):
        return FractionPiLinear(-self.q0, -self.q1)

    def scaled(self, r):
        return FractionPiLinear(self.q0 * r, self.q1 * r)

    def scale_pow2(self, k):
        f = F(2) ** k
        return FractionPiLinear(self.q0 * f, self.q1 * f)

    def sign(self):
        q0, q1 = self.q0, self.q1
        return _sign_int(q0.numerator * q1.denominator, q1.numerator * q0.denominator)

    def compare(self, other):
        if self.q0 == other.q0 and self.q1 == other.q1:
            return EQUAL
        n0, d0, n1, d1 = self.q0.numerator, self.q0.denominator, self.q1.numerator, self.q1.denominator
        m0, e0, m1, e1 = other.q0.numerator, other.q0.denominator, other.q1.numerator, other.q1.denominator
        return _sign_int((n0 * e0 - m0 * d0) * d1 * e1, (n1 * e1 - m1 * d1) * d0 * e0)

    def reduce_mod_2pi(self):
        n0, d0, n1, d1 = self.q0.numerator, self.q0.denominator, self.q1.numerator, self.q1.denominator
        if n0 == 0:
            m = -((d1 - n1) // (2 * d1))
            return FractionPiLinear(0, self.q1 - 2 * m)
        u, v, w = n0 * d1, (n1 - d1) * d0, 2 * d0 * d1
        p = 64 + max(0, n0.bit_length() - d0.bit_length())
        while p <= _MAX_BITS:
            lo, hi = _pi_fixed(p)
            us = u << p
            clo = -(-(us + v * lo) // (w * lo))
            if clo == -(-(us + v * hi) // (w * hi)):
                return FractionPiLinear(self.q0, self.q1 - 2 * clo)
            p *= 2
        raise AssertionError("angle reduction did not converge")

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"PiLinear({self.q0!r}, {self.q1!r})"


def assert_same(x: PiLinear, want: FractionPiLinear):
    """x is the canonical triple of the oracle's value."""
    assert (x.q0, x.q1) == (want.q0, want.q1)
    assert type(x.a) is int and type(x.b) is int and type(x.d) is int
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert x == PiLinear(want.q0, want.q1) and hash(x) == hash(PiLinear(want.q0, want.q1))


def assert_matches_fraction_pilinear(q0, q1, r0, r1, r, k):
    x, y = PiLinear(q0, q1), PiLinear(r0, r1)
    X, Y = FractionPiLinear(q0, q1), FractionPiLinear(r0, r1)
    assert_same(x, X)
    assert_same(x + y, X + Y)
    assert_same(x - y, X - Y)
    assert_same(-x, -X)
    assert_same(x.scaled(r), X.scaled(r))
    assert_same(scale_pow2(x, k), X.scale_pow2(k))
    assert_same(reduce_mod_2pi(x), X.reduce_mod_2pi())
    want = X.compare(Y)
    assert compare(x, y) == want and (x - y).sign() == want
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)
    assert x.sign() == X.sign() and (x == y) == (want == EQUAL)
    assert float(x).hex() == nearest_double(x).hex()
    assert_encloses(x, 30)
    assert (str(x), repr(x)) == (str(X), repr(X))


@given(
    mixed_rationals,
    mixed_rationals,
    mixed_rationals,
    mixed_rationals,
    mixed_rationals,
    st.integers(min_value=-700, max_value=700),
)
@settings(max_examples=300, deadline=None)
def test_triple_matches_fraction_pilinear(q0, q1, r0, r1, r, k):
    assert_matches_fraction_pilinear(q0, q1, r0, r1, r, k)
    assert_matches_fraction_pilinear(q0, 0, 0, r1, r, k)
    assert_matches_fraction_pilinear(0, q1, r0, 0, r, -k)


@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=-2, max_value=2),
    st.one_of(rationals, big_rationals).filter(lambda c: c != 0),
    mixed_rationals,
    mixed_rationals,
    st.integers(min_value=-64, max_value=64),
)
@settings(max_examples=300, deadline=None)
def test_triple_matches_fraction_pilinear_near_pi_ties(k, offset, c, q0, q1, e):
    # x - y = c * (pi - r) with r within 3 * 10**-k of pi
    r = pi_approximation(k, offset)
    assert_matches_fraction_pilinear(q0, q1, q0 + r * c, q1 - c, c, e)
    # q0 alone close to an odd multiple of pi, against that multiple
    assert_matches_fraction_pilinear(r * (2 * offset + 1), 0, 0, 2 * offset + 1, r, e)


def test_triple_is_canonical_and_immutable():
    x = PiLinear(F(2, 4), 1)
    assert (x.a, x.b, x.d) == (1, 2, 2)
    # one value built four ways: one triple, one hash
    for y in (
        PiLinear(F(1, 2), F(2, 2)),
        PiLinear(F(1, 4), F(1, 2)) + PiLinear(F(1, 4), F(1, 2)),
        PiLinear(3, 6).scaled(F(1, 6)),
        scale_pow2(PiLinear(4, 8), -3),
    ):
        assert (y.a, y.b, y.d) == (1, 2, 2)
        assert y == x and hash(y) == hash(x)
    assert PiLinear(F(1, 6), F(-3, 4)).d == 12 and PiLinear(F(5, 3), F(5, 3)).a == 5
    z = PiLinear(0, F(0, 7))
    assert (z.a, z.b, z.d) == (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    # copies go through the triple, not through field assignment
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert (y.a, y.b, y.d) == (1, 2, 2) and y == x
    assert PiLinear.__slots__ == ("a", "b", "d") and not hasattr(x, "__dict__")
    for name in ("a", "b", "d", "q0", "q1"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.a
    for bad in ((1.5,), (0, 1.5), ("1",)):
        with pytest.raises(TypeError):
            PiLinear(*bad)
    with pytest.raises(TypeError):
        x.scaled(0.5)
    assert x != (1, 2, 2) and x != F(1, 2)
