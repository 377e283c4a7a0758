"""Exact arithmetic over numbers of the form q0 + q1*pi with rational q0, q1.

Every angle and section value handled by this package lives in the
two-dimensional Q-module spanned by {1, pi}.  Since pi is irrational the
map (q0, q1) -> q0 + q1*pi is injective, so equality is componentwise and
ordering is decidable: when the pi-coefficients differ, the sign of the
difference reduces to comparing a rational number against pi, which a
certified rational enclosure of pi settles in finitely many refinement
steps.

The enclosure itself is computed from the Machin formula
pi = 16*atan(1/5) - 4*atan(1/239) with pure Fraction arithmetic; the
alternating-series tail bound makes both endpoints certified.  It is
cached per precision, and the scalar kernels (sign, comparison, angle
reduction, the float midpoint) read it as one fixed-point pair of
integers lo <= pi * 2**p <= hi: they cross-multiply the rational
components and compare integers, so no decision builds a Fraction or
pays a gcd.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

LESS, EQUAL, GREATER = -1, 0, 1

_MAX_DIGITS = 5000  # refinement cap; exceeding it means a comparison of equals
_MAX_BITS = math.ceil(_MAX_DIGITS * math.log2(10))


class PrecisionError(ArithmeticError):
    """An interval refinement hit the precision cap without separating."""


# ---------------------------------------------------------------------------
# certified pi enclosure


def _atan_inv_bounds(x: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    # atan(1/x) for integer x >= 2, alternating series with decreasing terms:
    # the true value always lies between consecutive partial sums.
    s = Fraction(0)
    k = 0
    term = Fraction(1, x)
    sign = 1
    while term > eps:
        s += sign * term
        k += 1
        sign = -sign
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
    if sign > 0:
        return s, s + term
    return s - term, s


_pi_cache: dict[int, tuple[Fraction, Fraction]] = {}


def pi_bounds(digits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of pi with width <= 10**-digits."""
    if digits < 1:
        digits = 1
    key = 1 << max(0, (digits - 1).bit_length())  # round up to a power of two
    cached = _pi_cache.get(key)
    if cached is None:
        eps = Fraction(1, 10**key)
        alo, ahi = _atan_inv_bounds(5, eps / 64)
        blo, bhi = _atan_inv_bounds(239, eps / 16)
        lo = 16 * alo - 4 * bhi
        hi = 16 * ahi - 4 * blo
        cached = _pi_cache[key] = (lo, hi)
    return cached


_pi_fixed_cache: dict[int, tuple[int, int]] = {}


def _pi_fixed(p: int) -> tuple[int, int]:
    """Integers lo <= pi * 2**p <= hi, from the certified pi enclosure."""
    cached = _pi_fixed_cache.get(p)
    if cached is None:
        lo, hi = pi_bounds(math.ceil(p * math.log10(2)) + 1)
        cached = _pi_fixed_cache[p] = (
            (lo.numerator << p) // lo.denominator,
            -(-(hi.numerator << p) // hi.denominator),
        )
    return cached


_pi_mid_cache: dict[int, tuple[int, int]] = {}


def _pi_mid(digits: int) -> tuple[int, int]:
    """Numerator and denominator of the midpoint of pi_bounds(digits)."""
    cached = _pi_mid_cache.get(digits)
    if cached is None:
        lo, hi = pi_bounds(digits)
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        cached = _pi_mid_cache[digits] = (a * d + c * b, 2 * b * d)
    return cached


def _sign_int(x: int, y: int) -> int:
    """Sign of x + y*pi for integers x, y."""
    if y == 0 or x == 0 or (x > 0) == (y > 0):
        return (x > 0) - (x < 0) if x else (y > 0) - (y < 0)
    # opposite signs: with lo <= pi * 2**p <= hi the value times 2**p lies
    # between x * 2**p + y*lo and x * 2**p + y*hi, which are at most 2|y|
    # apart; double p until both have one sign
    p = 64
    while p <= _MAX_BITS:
        lo, hi = _pi_fixed(p)
        xs = x << p
        a, b = xs + y * lo, xs + y * hi
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        p *= 2
    raise PrecisionError("pi comparison did not separate (impossible for rational r)")


def _diff_ints(a: "PiLinear", b: "PiLinear") -> tuple[int, int]:
    """Integers (x, y) with x + y*pi a positive multiple of a - b."""
    n0, d0 = a.q0.numerator, a.q0.denominator
    m0, e0 = b.q0.numerator, b.q0.denominator
    n1, d1 = a.q1.numerator, a.q1.denominator
    m1, e1 = b.q1.numerator, b.q1.denominator
    return (n0 * e0 - m0 * d0) * d1 * e1, (n1 * e1 - m1 * d1) * d0 * e0


# ---------------------------------------------------------------------------
# the scalar type


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


@dataclass(frozen=True)
class PiLinear:
    """Exact real number q0 + q1*pi with rational components."""

    q0: Fraction
    q1: Fraction

    def __init__(self, q0: Rat = 0, q1: Rat = 0):
        object.__setattr__(self, "q0", _as_fraction(q0))
        object.__setattr__(self, "q1", _as_fraction(q1))

    # -- algebra (exact, componentwise) --

    def __add__(self, other: "PiLinear") -> "PiLinear":
        return PiLinear(self.q0 + other.q0, self.q1 + other.q1)

    def __sub__(self, other: "PiLinear") -> "PiLinear":
        return PiLinear(self.q0 - other.q0, self.q1 - other.q1)

    def __neg__(self) -> "PiLinear":
        return PiLinear(-self.q0, -self.q1)

    def scaled(self, r: Rat) -> "PiLinear":
        r = _as_fraction(r)
        return PiLinear(self.q0 * r, self.q1 * r)

    def is_zero(self) -> bool:
        return self.q0 == 0 and self.q1 == 0

    # -- ordering --

    def sign(self) -> int:
        q0, q1 = self.q0, self.q1
        return _sign_int(q0.numerator * q1.denominator, q1.numerator * q0.denominator)

    def __lt__(self, other: "PiLinear") -> bool:
        return _sign_int(*_diff_ints(self, other)) < 0

    def __le__(self, other: "PiLinear") -> bool:
        return _sign_int(*_diff_ints(self, other)) <= 0

    def __gt__(self, other: "PiLinear") -> bool:
        return _sign_int(*_diff_ints(self, other)) > 0

    def __ge__(self, other: "PiLinear") -> bool:
        return _sign_int(*_diff_ints(self, other)) >= 0

    # -- numeric enclosure --

    def bounds(self, digits: int) -> tuple[Fraction, Fraction]:
        """Enclosure of the value with width <= 10**-digits."""
        if self.q1 == 0:
            return self.q0, self.q0
        extra = len(str(abs(self.q1.numerator))) + len(str(self.q1.denominator)) + 1
        plo, phi = pi_bounds(digits + extra)
        if self.q1 > 0:
            return self.q0 + self.q1 * plo, self.q0 + self.q1 * phi
        return self.q0 + self.q1 * phi, self.q0 + self.q1 * plo

    def __float__(self) -> float:
        # the midpoint of bounds(20), q0 + q1 * (pi_lo + pi_hi)/2, as one
        # int / int, which CPython rounds correctly like float(Fraction)
        q0, q1 = self.q0, self.q1
        if q1 == 0:
            return float(q0)
        n0, d0, n1, d1 = q0.numerator, q0.denominator, q1.numerator, q1.denominator
        pn, pd = _pi_mid(20 + len(str(abs(n1))) + len(str(d1)) + 1)
        return (n0 * d1 * pd + n1 * d0 * pn) / (d0 * d1 * pd)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"PiLinear({self.q0!r}, {self.q1!r})"


ZERO = PiLinear(0, 0)
PI = PiLinear(0, 1)
TWO_PI = PiLinear(0, 2)


def compare(a: PiLinear, b: PiLinear) -> int:
    """Ordering of the exact values: LESS, EQUAL or GREATER."""
    if a.q0 == b.q0 and a.q1 == b.q1:
        return EQUAL
    return _sign_int(*_diff_ints(a, b))


def scale_pow2(a: PiLinear, k: int) -> PiLinear:
    """Exact multiplication by 2**k (k may be negative)."""
    f = Fraction(2) ** k
    return PiLinear(a.q0 * f, a.q1 * f)


def reduce_mod_2pi(a: PiLinear) -> PiLinear:
    """The unique representative of a modulo 2*pi lying in (-pi, pi].

    The reduction subtracts 2*pi*m where m is the single integer in
    [v/(2pi) - 1/2, v/(2pi) + 1/2).  When q0 = 0 that bracket has rational
    endpoints and is resolved exactly (this covers the boundary value
    (2m+1)*pi, which maps to +pi); otherwise the bracket endpoint is
    irrational and an enclosure determines m after finitely many
    refinements.
    """
    n0, d0, n1, d1 = a.q0.numerator, a.q0.denominator, a.q1.numerator, a.q1.denominator
    if n0 == 0:
        m = -((d1 - n1) // (2 * d1))  # ceil((q1 - 1)/2)
        return PiLinear(0, a.q1 - 2 * m)
    # x = q0/(2pi) + (q1 - 1)/2 is irrational; m = ceil(x).  With
    # lo <= pi * 2**p <= hi, x lies between the rationals
    # (n0 * d1 * 2**p + (n1 - d1) * d0 * P) / (2 * d0 * d1 * P) at P = lo, hi
    u, v, w = n0 * d1, (n1 - d1) * d0, 2 * d0 * d1
    p = 64 + max(0, n0.bit_length() - d0.bit_length())
    while p <= _MAX_BITS:
        lo, hi = _pi_fixed(p)
        us = u << p
        clo = -(-(us + v * lo) // (w * lo))
        if clo == -(-(us + v * hi) // (w * hi)):
            return PiLinear(a.q0, a.q1 - 2 * clo)
        p *= 2
    raise PrecisionError("angle reduction did not converge")


def to_float(a: PiLinear, digits: int) -> tuple[Fraction, Fraction]:
    """Interval of width <= 10**-digits containing the exact value."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return a.bounds(digits)


# ---------------------------------------------------------------------------
# floor/ceil of ratios of PiLinear values (used for lattice point counting)


def exact_ratio(x: PiLinear, s: PiLinear) -> Fraction | None:
    """Return r with x = r*s if that rational r exists, else None."""
    if s.is_zero():
        raise ZeroDivisionError("ratio by zero")
    if s.q0 == 0:
        if x.q0 != 0:
            return None
        return x.q1 / s.q1
    if s.q1 == 0:
        if x.q1 != 0:
            return None
        return x.q0 / s.q0
    r = x.q0 / s.q0
    return r if x.q1 == r * s.q1 else None


def floor_ratio(x: PiLinear, s: PiLinear) -> int:
    """floor(x / s) for s > 0, exact.

    A rational ratio is detected componentwise; an irrational one is
    separated from the integers by enclosure refinement.
    """
    r = exact_ratio(x, s)
    if r is not None:
        return math.floor(r)
    digits = 20
    while digits <= _MAX_DIGITS:
        xlo, xhi = x.bounds(digits)
        slo, shi = s.bounds(digits)
        if slo > 0:
            quotients = (xlo / slo, xlo / shi, xhi / slo, xhi / shi)
            flo, fhi = math.floor(min(quotients)), math.floor(max(quotients))
            if flo == fhi:
                return flo
        digits *= 2
    raise PrecisionError("ratio floor did not separate")


def ceil_ratio(x: PiLinear, s: PiLinear) -> int:
    return -floor_ratio(-x, s)


# ---------------------------------------------------------------------------
# text form: "q0 + q1*pi" with reduced fractions


def render(a: PiLinear) -> str:
    if a.q1 == 0:
        return str(a.q0)
    pi_part = f"{a.q1}*pi" if a.q1 > 0 else f"-{-a.q1}*pi"
    if a.q0 == 0:
        return pi_part
    if a.q1 > 0:
        return f"{a.q0} + {a.q1}*pi"
    return f"{a.q0} - {-a.q1}*pi"


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\s*\*\s*pi|pi|(\d+(?:/\d+)?))$")


def parse(text: str) -> PiLinear:
    """Parse the rendering produced by :func:`render` (and simple variants).

    Accepted terms: ``a/b``, ``a/b*pi``, ``pi``; terms may carry signs and
    be combined with ``+`` or ``-``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty pi-linear literal")
    # split into signed terms; a sign not preceded by */ or another sign starts a term
    terms: list[tuple[int, str]] = []
    sign, buf = 1, ""
    pending_sign = 1
    for ch in s:
        if ch in "+-" and buf.strip() and not buf.rstrip().endswith(("*", "/")):
            terms.append((pending_sign, buf.strip()))
            pending_sign = -1 if ch == "-" else 1
            buf = ""
        elif ch in "+-" and not buf.strip():
            pending_sign *= -1 if ch == "-" else 1
        else:
            buf += ch
    if not buf.strip():
        raise ValueError(f"dangling sign in pi-linear literal: {text!r}")
    terms.append((pending_sign, buf.strip()))
    q0 = Fraction(0)
    q1 = Fraction(0)
    for sign, t in terms:
        m = _TERM_RE.match(t)
        if m is None:
            raise ValueError(f"bad pi-linear term: {t!r}")
        coeff_pi, plain = m.groups()
        if coeff_pi is not None:
            q1 += sign * Fraction(coeff_pi)
        elif plain is not None:
            q0 += sign * Fraction(plain)
        else:
            q1 += sign
    return PiLinear(q0, q1)
