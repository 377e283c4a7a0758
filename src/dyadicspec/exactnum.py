"""Exact arithmetic over numbers of the form q0 + q1*pi with rational q0, q1.

Every angle and section value handled by this package lives in the
two-dimensional Q-module spanned by {1, pi}.  Since pi is irrational the
map (q0, q1) -> q0 + q1*pi is injective, so equality is componentwise and
ordering is decidable: when the pi-coefficients differ, the sign of the
difference reduces to comparing a rational number against pi, which a
certified rational enclosure of pi settles in finitely many refinement
steps.

A value is held as one reduced integer triple, (a + b*pi)/d, so
equality, hashing and the algebra run on integers; q0 = a/d and
q1 = b/d are Fraction views for rendering and the cold paths.

The enclosure of pi is computed from the Machin formula
pi = 16*atan(1/5) - 4*atan(1/239) with pure Fraction arithmetic; the
alternating-series tail bound makes both endpoints certified.  It is
cached per precision, and the scalar kernels (sign, comparison, angle
reduction, the float midpoint) read it as one fixed-point pair of
integers lo <= pi * 2**p <= hi: they cross-multiply the triples and
compare integers, so no decision builds a Fraction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

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


def _diff_ints(x: "PiLinear", y: "PiLinear") -> tuple[int, int]:
    """Integers (u, v) with u + v*pi a positive multiple of x - y."""
    d, e = x.d, y.d
    if d == e:
        return x.a - y.a, x.b - y.b
    return x.a * e - y.a * d, x.b * e - y.b * d


# ---------------------------------------------------------------------------
# the scalar type


def _rational(x: Rat) -> Rat:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected rational, got {type(x).__name__}")


class PiLinear:
    """Exact real number q0 + q1*pi with rational components.

    The value is held as one integer triple, (a + b*pi)/d with d > 0 and
    gcd(a, b, d) = 1.  Since pi is irrational equal values have equal
    triples, so equality and hashing compare integers.  q0 and q1 are
    read-only Fraction views; no field can be assigned.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, q0: Rat = 0, q1: Rat = 0):
        # over the lcm of the two reduced denominators the triple is reduced
        d0, d1 = _rational(q0).denominator, _rational(q1).denominator
        d = d0 if d0 == d1 else math.lcm(d0, d1)
        _set_a(self, q0.numerator * (d // d0))
        _set_b(self, q1.numerator * (d // d1))
        _set_d(self, d)

    @property
    def q0(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def q1(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __setattr__(self, name, value):
        raise AttributeError(f"PiLinear is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PiLinear is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return _raw, (self.a, self.b, self.d)

    def __eq__(self, other):
        if other.__class__ is not PiLinear:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    # -- algebra (exact, on the triple) --

    def __add__(self, other: "PiLinear") -> "PiLinear":
        d, e = self.d, other.d
        if d == e:
            return _mk(self.a + other.a, self.b + other.b, d)
        return _mk(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "PiLinear") -> "PiLinear":
        d, e = self.d, other.d
        if d == e:
            return _mk(self.a - other.a, self.b - other.b, d)
        return _mk(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "PiLinear":
        return _raw(-self.a, -self.b, self.d)

    def scaled(self, r: Rat) -> "PiLinear":
        n = _rational(r).numerator
        return _mk(self.a * n, self.b * n, self.d * r.denominator)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- ordering --

    def sign(self) -> int:
        return _sign_int(self.a, self.b)

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
        q0, q1 = self.q0, self.q1
        if q1 == 0:
            return q0, q0
        extra = len(str(abs(q1.numerator))) + len(str(q1.denominator)) + 1
        plo, phi = pi_bounds(digits + extra)
        if q1 > 0:
            return q0 + q1 * plo, q0 + q1 * phi
        return q0 + q1 * phi, q0 + q1 * plo

    def __float__(self) -> float:
        # the midpoint of bounds(20), q0 + q1 * (pi_lo + pi_hi)/2, as one
        # int / int, which CPython rounds correctly like float(Fraction);
        # the pi digits follow the reduced q1, as in bounds
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return a / d
        g = math.gcd(b, d)
        pn, pd = _pi_mid(20 + len(str(abs(b) // g)) + len(str(d // g)) + 1)
        return (a * pd + b * pn) / (d * pd)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"PiLinear({self.q0!r}, {self.q1!r})"


_set_a, _set_b, _set_d = PiLinear.a.__set__, PiLinear.b.__set__, PiLinear.d.__set__
_alloc = object.__new__


def _raw(a: int, b: int, d: int) -> PiLinear:
    """The PiLinear (a + b*pi)/d of a triple that is already reduced."""
    x = _alloc(PiLinear)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _mk(a: int, b: int, d: int) -> PiLinear:
    """The PiLinear (a + b*pi)/d for integers a, b and d > 0."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _v2(n: int) -> int:
    """The exponent of 2 in the integer n != 0."""
    if n == 0:
        raise ValueError("v2(0)")
    return (n & -n).bit_length() - 1


def _rat_gcd(values: Iterable[Fraction]) -> Fraction:
    """The largest g with every value an integer multiple of g (0 if all are 0)."""
    g = Fraction(0)
    for v in values:
        if v:
            g = Fraction(
                math.gcd(g.numerator * v.denominator, v.numerator * g.denominator),
                g.denominator * v.denominator,
            )
    return g


ZERO = PiLinear(0, 0)
PI = PiLinear(0, 1)
TWO_PI = PiLinear(0, 2)


def compare(a: PiLinear, b: PiLinear) -> int:
    """Ordering of the exact values: LESS, EQUAL or GREATER."""
    return _sign_int(*_diff_ints(a, b))


def scale_pow2(x: PiLinear, k: int) -> PiLinear:
    """Exact multiplication by 2**k (k may be negative)."""
    a, b, d = x.a, x.b, x.d
    if k >= 0:
        # move t = min(k, v2(d)) factors of 2 out of d: if d keeps one, then
        # t = k and a, b are not shifted, so no common factor appears
        t = min(k, _v2(d))
        return _raw(a << k - t, b << k - t, d >> t)
    if not (a or b):
        return x
    t = min(-k, _v2(a | b))
    return _raw(a >> t, b >> t, d << -k - t)


def reduce_mod_2pi(x: PiLinear) -> PiLinear:
    """The unique representative of x modulo 2*pi lying in (-pi, pi].

    The reduction subtracts 2*pi*m where m is the single integer in
    [v/(2pi) - 1/2, v/(2pi) + 1/2).  When q0 = 0 that bracket has rational
    endpoints and is resolved exactly (this covers the boundary value
    (2m+1)*pi, which maps to +pi); otherwise the bracket endpoint is
    irrational and an enclosure determines m after finitely many
    refinements.  Subtracting 2*m*d from b keeps the triple reduced.
    """
    a, b, d = x.a, x.b, x.d
    if a == 0:
        m = -((d - b) // (2 * d))  # ceil((q1 - 1)/2)
        return _raw(0, b - 2 * m * d, d) if m else x
    # y = q0/(2pi) + (q1 - 1)/2 = (a/pi + b - d)/(2d) is irrational; m =
    # ceil(y).  With lo <= pi * 2**p <= hi, y lies between the rationals
    # (a * 2**p + (b - d) * P) / (2d * P) at P = lo, hi
    v, w = b - d, 2 * d
    p = 64 + max(0, a.bit_length() - d.bit_length())
    while p <= _MAX_BITS:
        lo, hi = _pi_fixed(p)
        us = a << p
        clo = -(-(us + v * lo) // (w * lo))
        if clo == -(-(us + v * hi) // (w * hi)):
            return _raw(a, b - 2 * clo * d, d) if clo else x
        p *= 2
    raise PrecisionError("angle reduction did not converge")


def to_float(a: PiLinear, digits: int) -> tuple[Fraction, Fraction]:
    """Interval of width <= 10**-digits containing the exact value."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return a.bounds(digits)


# ---------------------------------------------------------------------------
# floor/ceil of ratios of PiLinear values (used for lattice point counting)


def _ratio_ints(x: PiLinear, s: PiLinear) -> tuple[int, int] | None:
    """Integers (n, m) with x = (n/m)*s when that ratio is rational, else None."""
    if s.is_zero():
        raise ZeroDivisionError("ratio by zero")
    if x.a * s.b != x.b * s.a:
        return None
    # (x.a, x.b) is parallel to (s.a, s.b): read the ratio off a nonzero one
    if s.a:
        return x.a * s.d, s.a * x.d
    return x.b * s.d, s.b * x.d


def floor_ratio(x: PiLinear, s: PiLinear) -> int:
    """floor(x / s) for s > 0, exact.

    A rational ratio is detected componentwise.  Otherwise, with lo <= pi
    * 2**p <= hi, x * d * 2**p lies between the integers a * 2**p + b * P
    at P = lo, hi (for x = (a + b*pi)/d), and likewise s * e * 2**p; the
    ratio x / s is (x d 2**p) e / ((s e 2**p) d), so it lies between the
    four quotients of those ends.  p doubles until their floors agree.
    """
    r = _ratio_ints(x, s)
    if r is not None:
        return r[0] // r[1]
    xa, xb, d = x.a, x.b, x.d
    sa, sb, e = s.a, s.b, s.d
    p = 64
    while p <= _MAX_BITS:
        lo, hi = _pi_fixed(p)
        xs, ss = xa << p, sa << p
        x1, x2 = sorted((xs + xb * lo, xs + xb * hi))
        s1, s2 = sorted((ss + sb * lo, ss + sb * hi))
        if s1 > 0:
            x1, x2, s1, s2 = x1 * e, x2 * e, s1 * d, s2 * d
            # the ratio is monotone in each end, so its extremes are corners
            flo = min(x1 // s1, x1 // s2)
            if flo == max(x2 // s1, x2 // s2):
                return flo
        p *= 2
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
        try:
            if coeff_pi is not None:
                q1 += sign * Fraction(coeff_pi)
            elif plain is not None:
                q0 += sign * Fraction(plain)
            else:
                q1 += sign
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in pi-linear term: {t!r}") from None
    return PiLinear(q0, q1)
