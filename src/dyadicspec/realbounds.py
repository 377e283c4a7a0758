"""Certified rational enclosures for the few transcendental quantities needed.

Verdict-bearing comparisons stay in exact arithmetic whenever possible
(angle comparisons, log-modulus comparisons, the rational-cosine special
angles).  Everything else goes through enclosures with explicit error
bounds, refined until the comparison separates.  A comparison that has not
separated at the precision cap raises `ComputationLimit` instead of guessing.

Both kernels are fixed-point series on Python integers, in the
midpoint-radius style of Arb (Johansson, IEEE TC 2017), so no step pays
a gcd and every denominator is a power of two:

* `_cos_ints`: the reduced angle and pi are integers at scale 2**-p, the
  series is summed with floor rounding, and the radius counts the
  rounding error, the tail and the angle width.  cos is even, and the
  kernel reads |a| (the end of the angle's integer bracket nearer 0), so
  a and -a get one and the same enclosure.
* `_exp_ints`: argument reduction to |x| / 2**s < 1/2, a floor-rounded
  Taylor sum, s squarings and a reciprocal for x < 0, at a cost that
  grows with the bits of the result, not with |x|**2.  The printed
  `exp_bounds` keeps exact Taylor endpoints for |x| <= 64 (see there).

`_abs1m_sq_combine` is the one formula for |1 - z|**2: it takes the two
kernels' integer endpoints and returns integer endpoints over one common
denominator, so the enclosures of |1 - z|**2 are the same rationals as a
Fraction evaluation over the kernels' endpoints, without its gcds.  Each
kernel result is an argument, so a caller with many points shares one exp
per radius and one cos per |angle| among them (`levels.LevelCache.sup`),
and compares the results on integers.  `abs1m_sq_bounds` and
`compare_abs1m_sq` run both kernels for one point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import ComputationLimit, PiLinear, _pi_fixed, _precisions, reduce_mod_2pi

Interval = tuple[Fraction, Fraction]

# `_exp_ints` refuses x above this.  One call took 0.49, 2.2 and 7.8 s at
# x = 1, 2 and 4 * 10**5 (one Xeon core), about x**2, so a call below the
# cap ends within a minute; at x ~ 10**20 its first integer cannot be built
EXP_ARG_CAP = 10**6


# cos(q1*pi) is rational exactly for these |q1| in [0, 1] (Niven's theorem),
# keyed by the reduced (|numerator|, denominator) of q1; the values are
# stored doubled, as integers
_RATIONAL_COS2 = {(0, 1): 2, (1, 3): 1, (1, 2): 0, (2, 3): -1, (1, 1): -2}


def exp_bounds(x: Fraction, digits: int) -> Interval:
    """Enclosure of exp(x) with width <= 10**-digits.

    The classifier prints R * exp_bounds(R, 6)[1], and the Taylor sum's
    slack of up to 10**-6 shows in that print at small R, so for |x| <= 64
    the endpoints stay those of the term-by-term sum.  Above 64 either
    kernel's slack of at most 10**-6 is under e**-64 * 10**-6 ~ 2e-34
    relative, 18 orders of magnitude below a double's ulp, so `_exp_ints`
    moves no printed digit.
    """
    if abs(x) <= 64:
        lo, hi, den = _exp_taylor(x, digits)
    else:
        lo, hi, den = _exp_ints((x.numerator, x.denominator), digits)
    return Fraction(lo, den), Fraction(hi, den)


def _exp_taylor(x: Fraction, digits: int) -> tuple[int, int, int]:
    """Integers lo, hi, den > 0 with lo/den <= exp(x) <= hi/den.

    The partial sum s_k = N_k / D_k with D_k = b**k k! at x = a/b stops at
    the first k >= 2|x| + 2 whose geometric tail bound 2|x|**(k+1)/(k+1)!
    is at most 10**-digits / 2; the result is s_k -+ that bound.
    """
    if x == 0:
        return 1, 1, 1
    a, b = x.numerator, x.denominator
    tail_scale = 4 * 10**digits
    num = den = power = 1  # N_k, D_k and a**k at k = 0
    k = 0
    while True:
        next_power = power * a
        next_den = den * b * (k + 1)
        if k * b >= 2 * (abs(a) + b) and tail_scale * abs(next_power) <= next_den:
            break
        k += 1
        num = num * b * k + next_power
        den, power = next_den, next_power
    mid = num * b * (k + 1)
    tail = 2 * abs(next_power)
    return mid - tail, mid + tail, next_den


def _exp_ints(x: tuple[int, int], digits: int) -> tuple[int, int, int]:
    """Integers lo, hi and den = 2**q with lo/den <= exp(x) <= hi/den and
    width <= 10**-digits, for x given as (numerator, denominator > 0).

    Argument reduction (Brent & Zimmermann, Modern Computer Arithmetic,
    4.3-4.4): with 2**s > 2|x|, t = |x| / 2**s < 1/2.  Each term t**k/k!
    at scale 2**w is floored from the previous one and the exact t, so it
    lies below the true term by at most t/k times the previous error plus
    1: under 2 units.  The sum stops at the first term that floors to 0;
    the true terms halve from there, so the tail is under 4 units.  Squaring
    s times (floor lo, ceiling hi) gives exp(|x|), and its reciprocal at
    scale 2**p gives exp(-|x|), which is at most 2**-p once |x| >= p.
    Above EXP_ARG_CAP it raises ComputationLimit before building anything.
    """
    a, b = x
    if a == 0:
        return 1, 1, 1
    neg, a = a < 0, abs(a)
    p = math.ceil(digits * math.log2(10)) + 2  # 4 units at 2**-p are <= 10**-digits
    if neg and a // b >= p:
        return 0, 1, 1 << p  # exp(-|x|) <= 2**-|x| <= 2**-p
    if not neg and a > EXP_ARG_CAP * b:
        raise ComputationLimit(f"exp(x) for x above {EXP_ARG_CAP}")
    s = (2 * a // b).bit_length()
    # room for 2**s (2k + 4) units of error, and for exp(x) < 2**(1.443 x) when x > 0
    w = p + s + (0 if neg else a * 1443 // (1000 * b) + 1)
    w += w.bit_length() + 4
    scale, bs = 10**digits, b << s
    while True:
        term = total = 1 << w
        k = 0
        while term:
            k += 1
            term = term * a // (bs * k)
            total += term
        lo, hi = total, total + 2 * k + 4
        for _ in range(s):
            lo, hi = lo * lo >> w, -(-hi * hi >> w)
        den = 1 << w
        if neg:
            one, den = den << p, 1 << p
            lo, hi = one // hi, -(-one // lo)
        if (hi - lo) * scale <= den:
            return lo, hi, den
        w += w // 2


def _angle_fixed(a: PiLinear, p: int) -> tuple[int, int]:
    """Integers lo <= a * 2**p <= hi, a few units apart."""
    n0, n1, d = a.a << p, a.b, a.d
    lo, hi = n0 // d, -(-n0 // d)
    if n1 == 0:
        return lo, hi
    # pi at 2**-(p+s) with 2**s > 4|q1| keeps the q1*pi error under 1 unit
    s = (abs(n1) // d).bit_length() + 2
    plo, phi = _pi_fixed(p + s)
    d1 = d << s
    if n1 < 0:
        plo, phi = phi, plo
    return lo + n1 * plo // d1, hi - (-n1 * phi // d1)


def _cos_fixed(t: int, p: int) -> tuple[int, int]:
    """Ball (m, r) with |cos(t * 2**-p) - m * 2**-p| <= r * 2**-p.

    Needs |t| * 2**-p <= 3.2, so that t**2 <= 10.24.  Each term
    t**(2k)/(2k)! is computed with floor rounding from the previous one
    and the floored t**2; by induction on k each is within 3 units of the
    true term (the first step amplifies an error by at most 10.24/2, the
    later ones shrink it), and the terms decrease from k = 1 on.  The sum
    stops at the first term that floors to 0: the alternating tail from
    there is at most that term, again within 3 units.  So k terms cost a
    radius of 3k units.
    """
    t2 = t * t >> p
    term = total = 1 << p
    k = 0
    while term:
        k += 1
        term = (term * t2 >> p) // ((2 * k - 1) * (2 * k))
        total += -term if k & 1 else term
    return total, 3 * k


def cos_bounds(angle: PiLinear, digits: int) -> Interval:
    """Enclosure of cos(angle) with width <= 10**-digits; exact for the
    rational-cosine angles."""
    lo, hi, p = _cos_ints(reduce_mod_2pi(angle), digits)
    return Fraction(lo, 1 << p), Fraction(hi, 1 << p)


def _cos_ints(a: PiLinear, digits: int) -> tuple[int, int, int]:
    """Integers lo, hi, p with lo * 2**-p <= cos(a) <= hi * 2**-p for a
    reduced angle a, width <= 10**-digits; exact (p = 1) at the
    rational-cosine angles."""
    if a.a == 0:
        c2 = _RATIONAL_COS2.get((abs(a.b), a.d))
        if c2 is not None:
            return c2, c2, 1
    # 2**-p0 <= 10**-digits, and the 2 * radius that the ball adds (3 units
    # per term, fewer terms than p bits, plus a few) stays below 2**(p - p0)
    p0 = math.ceil(digits * math.log2(10))
    p = p0 + p0.bit_length() + 5
    tlo, thi = _angle_fixed(a, p)
    # the bracket of -a is (-thi, -tlo), so the end nearer 0 is the same
    # integer for a and -a; cos is even and 1-Lipschitz, so |a| lies within
    # the angle width of it, which adds to the radius
    m, r = _cos_fixed(min(abs(tlo), abs(thi)), p)
    r += thi - tlo
    return m - r, m + r, p


def even_key(a: PiLinear) -> tuple[int, int, int]:
    """One key for a and -a, whose cos enclosures are one: the triple of
    whichever has the first nonzero of (pi coefficient, rational part)
    positive."""
    if a.b > 0 or (a.b == 0 and a.a >= 0):
        return a.a, a.b, a.d
    return -a.a, -a.b, a.d


def sqrt_bounds(x: Fraction, digits: int) -> Interval:
    """Enclosure of sqrt(x) for x >= 0 with width <= 10**-digits."""
    return interval_sqrt((x, x), digits)


def sqrt_ints(lo: tuple[int, int], hi: tuple[int, int], digits: int) -> tuple[int, int]:
    """Integers a, b with sqrt over [lo, hi] inside [a, b] * 10**-digits,
    for lo and hi given as (numerator, denominator > 0) and lo clipped at
    0: a = floor(sqrt(lo) * 10**digits) and b = floor(sqrt(hi) * 10**digits)
    + 1, or 0 at a zero end, one isqrt each."""
    if hi[0] < 0:
        raise ValueError("sqrt of negative value")
    s2 = 100**digits
    a = math.isqrt(lo[0] * s2 // lo[1]) if lo[0] > 0 else 0
    b = math.isqrt(hi[0] * s2 // hi[1]) + 1 if hi[0] else 0
    return a, b


def interval_sqrt(iv: Interval, digits: int) -> Interval:
    """Enclosure of sqrt over [iv[0], iv[1]], iv[0] clipped at 0."""
    x, y = iv
    a, b = sqrt_ints((x.numerator, x.denominator), (y.numerator, y.denominator), digits)
    scale = 10**digits
    return Fraction(a, scale), Fraction(b, scale)


def _log_pair(log_mod) -> tuple[int, int]:
    """A log-modulus given as a rational, or as the (numerator, denominator
    > 0) pair in lowest terms that the level layer holds, as that pair."""
    return log_mod if log_mod.__class__ is tuple else (log_mod.numerator, log_mod.denominator)


def _abs1m_sq_ints(log_mod: tuple[int, int], a: PiLinear, digits: int) -> tuple[int, int, int]:
    """Integers lo, hi, den > 0 with lo/den <= |1 - exp(log_mod + i*a)|**2
    <= hi/den, for a reduced angle a and the pair of log_mod: both kernels
    at digits + 2, combined."""
    return _abs1m_sq_combine(_exp_ints(log_mod, digits + 2), _cos_ints(a, digits + 2))


def _abs1m_sq_combine(e: tuple[int, int, int], c: tuple[int, int, int]) -> tuple[int, int, int]:
    """Integers lo, hi, den > 0 enclosing |1 - z|**2 = 1 - 2ec + e**2 from
    the kernels' results: e = exp(log_mod) in [el, eh] / ed and c = cos(a)
    in [cl, ch] / 2**p, over den = ed**2 * 4**p."""
    el, eh, ed = e
    cl, ch, p = c
    ed2 = ed * ed
    one = ed2 << 2 * p
    # f(e, c) = 1 - 2 e c + e^2, monotone decreasing in c; in e the extrema
    # of the quadratic are at the endpoints for e > 0
    sq_l, sq_h = el * el << 2 * p, eh * eh << 2 * p
    at_ch, at_cl = ch * ed << p + 1, cl * ed << p + 1
    lo = one + min(sq_l - el * at_ch, sq_h - eh * at_ch)
    hi = one + max(sq_l - el * at_cl, sq_h - eh * at_cl)
    # the quadratic in e attains its minimum at e = c if that lies inside
    if el << p <= ch * ed <= eh << p:
        lo = min(lo, ((1 << 2 * p) - ch * ch) * ed2)
    return max(lo, 0), hi, one


def abs1m_sq_bounds(log_mod, angle: PiLinear, digits: int) -> Interval:
    """Enclosure of |1 - z|**2 for z = exp(log_mod + i*angle), log_mod a
    rational or its pair (see `_log_pair`).

    Uses |1 - z|**2 = (1 - e^m)**2 + 2 e^m (1 - cos(angle)); exact for
    the rational-cosine angles on the unit circle.
    """
    lo, hi, den = _abs1m_sq_ints(_log_pair(log_mod), reduce_mod_2pi(angle), digits)
    return Fraction(lo, den), Fraction(hi, den)


def compare_abs1m_sq(log_mod, angle: PiLinear, threshold: Fraction) -> int:
    """Sign of |1 - exp(log_mod + i*angle)|**2 - threshold, resolved
    exactly, log_mod a rational or its pair (see `_log_pair`).

    The rational-cosine angles on the unit circle are exact: their
    enclosure is the value itself.
    """
    log_mod, a = _log_pair(log_mod), reduce_mod_2pi(angle)
    tn, td = threshold.numerator, threshold.denominator
    for bits in _precisions(50, "|1-z|^2 comparison"):
        lo, hi, den = _abs1m_sq_ints(log_mod, a, bits * 3 // 10)
        if lo * td > tn * den:
            return 1
        if hi * td < tn * den:
            return -1
        if lo == hi:
            return 0
