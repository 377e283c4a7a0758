"""Certified rational enclosures for the few transcendental quantities needed.

Verdict-bearing comparisons stay in exact arithmetic whenever possible
(angle comparisons, log-modulus comparisons, the rational-cosine special
angles).  Everything else goes through Fraction-valued Taylor enclosures
with explicit tail bounds, refined until the comparison separates.  A
comparison that cannot separate raises instead of guessing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import PiLinear, PrecisionError, reduce_mod_2pi

Interval = tuple[Fraction, Fraction]

_MAX_DIGITS = 1500

# cos(q1*pi) is rational exactly for these |q1| in [0, 1] (Niven's theorem)
_RATIONAL_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 3): Fraction(1, 2),
    Fraction(1, 2): Fraction(0),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1): Fraction(-1),
}


def exp_bounds(x: Fraction, digits: int) -> Interval:
    """Enclosure of exp(x) with width <= 10**-digits."""
    if x == 0:
        return Fraction(1), Fraction(1)
    eps = Fraction(1, 10**digits)
    ax = abs(x)
    term = Fraction(1)
    s = Fraction(1)
    k = 0
    # run until the geometric tail bound 2*term is small enough
    while k < 2 * ax + 2 or 2 * abs(term) * ax / (k + 1) > eps / 2:
        k += 1
        term = term * x / k
        s += term
    tail = 2 * abs(term) * ax / (k + 1)
    return s - tail, s + tail


def _cos_bounds_frac(t: Fraction, eps: Fraction) -> Interval:
    # |t| <= 4 assumed (angles are reduced first); alternating tail bound
    t2 = t * t
    term = Fraction(1)
    s = Fraction(1)
    k = 0
    while True:
        k += 1
        term = -term * t2 / ((2 * k - 1) * (2 * k))
        s += term
        nxt = abs(term) * t2 / ((2 * k + 1) * (2 * k + 2))
        if k >= 2 and nxt < eps:
            return s - nxt, s + nxt


def cos_bounds(angle: PiLinear, digits: int) -> Interval:
    """Enclosure of cos(angle); exact for the rational-cosine angles."""
    a = reduce_mod_2pi(angle)
    if a.q0 == 0:
        c = _RATIONAL_COS.get(abs(a.q1))
        if c is not None:
            return c, c
    eps = Fraction(1, 10**digits)
    tlo, thi = a.bounds(digits + 2)
    width = thi - tlo
    lo, hi = _cos_bounds_frac(tlo, eps / 2)
    # cos is 1-Lipschitz, so the value over [tlo, thi] stays within +-width
    return lo - width, hi + width


def sqrt_bounds(x: Fraction, digits: int) -> Interval:
    """Enclosure of sqrt(x) for x >= 0 with width <= 10**-digits."""
    if x < 0:
        raise ValueError("sqrt of negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 10**digits
    m = (x.numerator * scale * scale) // x.denominator
    r = math.isqrt(m)
    return Fraction(r, scale), Fraction(r + 1, scale)


def interval_sqrt(iv: Interval, digits: int) -> Interval:
    lo = sqrt_bounds(max(iv[0], Fraction(0)), digits)[0]
    hi = sqrt_bounds(iv[1], digits)[1]
    return lo, hi


def abs1m_sq_exact(log_mod: Fraction, angle: PiLinear) -> Fraction | None:
    """Exact value of |1 - exp(log_mod + i*angle)|**2 when it is rational."""
    if log_mod != 0:
        return None
    a = reduce_mod_2pi(angle)
    if a.q0 != 0:
        return None
    c = _RATIONAL_COS.get(abs(a.q1))
    if c is None:
        return None
    return 2 - 2 * c


def abs1m_sq_bounds(log_mod: Fraction, angle: PiLinear, digits: int) -> Interval:
    """Enclosure of |1 - z|**2 for z = exp(log_mod + i*angle).

    Uses |1 - z|**2 = (1 - e^m)**2 + 2 e^m (1 - cos(angle)).
    """
    exact = abs1m_sq_exact(log_mod, angle)
    if exact is not None:
        return exact, exact
    elo, ehi = exp_bounds(log_mod, digits + 2)
    clo, chi = cos_bounds(angle, digits + 2)
    # f(e, c) = 1 - 2 e c + e^2, monotone decreasing in c; in e the extrema
    # of the quadratic are at the endpoints for e > 0
    cands_lo = [1 - 2 * e * chi + e * e for e in (elo, ehi)]
    cands_hi = [1 - 2 * e * clo + e * e for e in (elo, ehi)]
    lo = min(cands_lo)
    hi = max(cands_hi)
    # the quadratic in e attains its minimum at e = c if that lies inside
    if elo <= chi <= ehi:
        lo = min(lo, 1 - chi * chi)
    return max(lo, Fraction(0)), hi


def compare_abs1m_sq(log_mod: Fraction, angle: PiLinear, threshold: Fraction) -> int:
    """Sign of |1 - exp(log_mod + i*angle)|**2 - threshold, resolved exactly.

    Fast exact paths: rational-cosine angles on the unit circle, and the
    threshold-2 case which reduces to the sign of cos(angle).
    """
    exact = abs1m_sq_exact(log_mod, angle)
    if exact is not None:
        return (exact > threshold) - (exact < threshold)
    if log_mod == 0 and threshold == 2:
        # 2 - 2cos(t) > 2 iff cos(t) < 0 iff |t| > pi/2 after reduction
        a = reduce_mod_2pi(angle)
        mag = -a if a.sign() < 0 else a
        return (mag - PiLinear(0, Fraction(1, 2))).sign()
    digits = 15
    while digits <= _MAX_DIGITS:
        lo, hi = abs1m_sq_bounds(log_mod, angle, digits)
        if lo > threshold:
            return 1
        if hi < threshold:
            return -1
        digits *= 3
    raise PrecisionError("|1-z|^2 comparison did not separate")
