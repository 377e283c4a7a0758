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

The one enclosure of pi is a pair of integers lo <= pi * 2**p <= hi
(`_pi_fixed`), Machin's formula pi = 16*atan(1/5) - 4*atan(1/239) summed
on integers with a counted rounding error, cached per precision.  The
scalar kernels (sign, comparison, angle reduction, ratio floor, nearest
double) cross-multiply the triples by it and compare integers, so no
decision builds a Fraction.  Each refines p over `_precisions`, which
raises `ComputationLimit` past one cap.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rat = Union[int, Fraction]

LESS, EQUAL, GREATER = -1, 0, 1

# The cap of every refinement loop.  The pi bracket at 2**16 bits took
# 0.34 s and the last `compare_abs1m_sq` step (51,200 bits) 1.3 s on one
# Xeon core, so a loop that runs to the cap ends within a few seconds
_MAX_BITS = 1 << 16


class ComputationLimit(RuntimeError):
    """An exact computation would exceed one of its size guards."""


def _precisions(start: int, what: str) -> Iterator[int]:
    """start, 2*start, ... up to _MAX_BITS bits, then ComputationLimit."""
    p = start
    while p <= _MAX_BITS:
        yield p
        p *= 2
    raise ComputationLimit(f"{what} did not separate within {_MAX_BITS} bits")


# ---------------------------------------------------------------------------
# certified pi enclosure


def _atan_inv_fixed(x: int, w: int) -> tuple[int, int]:
    """Integers s, k with |atan(1/x) * 2**w - s| < k + 1, for integer x >= 2.

    Nested floors of integer quotients compose, so each of the k terms of
    the alternating series is floor(2**w / (x**(2j+1) (2j+1))), less than
    1 unit low.  The sum stops at the first x**-(2j+1) below 1 unit, which
    bounds the tail.
    """
    power, x2 = (1 << w) // x, x * x
    s = k = 0
    while power:
        term = power // (2 * k + 1)
        s += -term if k & 1 else term
        power //= x2
        k += 1
    return s, k


_pi_fixed_cache: dict[int, tuple[int, int]] = {}


def _pi_fixed(p: int) -> tuple[int, int]:
    """Integers lo <= pi * 2**p <= hi with hi - lo <= 2.

    Machin's formula is summed at the power of two q at or above p, with
    q.bit_length() + 32 guard bits over its counted error, and shifted
    down to p (floor lo, ceiling hi).  Unless pi * 2**q lies within 2**-25
    of an integer, the bracket at q is (floor, floor + 1), and so is each
    one shifted down from it.  Each p is cached.
    """
    cached = _pi_fixed_cache.get(p)
    if cached is None:
        q = 1 << (p - 1).bit_length()
        if q == p:
            w = p + p.bit_length() + 32
            s5, k5 = _atan_inv_fixed(5, w)
            s239, k239 = _atan_inv_fixed(239, w)
            mid, err = 16 * s5 - 4 * s239, 16 * (k5 + 1) + 4 * (k239 + 1)
            (lo, hi), shift = (mid - err, mid + err), w - p
        else:
            (lo, hi), shift = _pi_fixed(q), q - p
        cached = _pi_fixed_cache[p] = (lo >> shift, -(-hi >> shift))
    return cached


def pi_bounds(digits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of pi with width <= 10**-digits."""
    p = math.ceil(max(digits, 1) * math.log2(10)) + 1  # 2 units of 2**-p
    lo, hi = _pi_fixed(p)
    return Fraction(lo, 1 << p), Fraction(hi, 1 << p)


def _sign_int(x: int, y: int) -> int:
    """Sign of x + y*pi for integers x, y."""
    if y == 0 or x == 0 or (x > 0) == (y > 0):
        return (x > 0) - (x < 0) if x else (y > 0) - (y < 0)
    # opposite signs: 333/106 < pi < 355/113, so x + y*pi lies between
    # (106x + 333y)/106 and (113x + 355y)/113, and has their sign when they
    # share one.  Else (a near-tie), with lo <= pi * 2**p <= hi, the value
    # times 2**p lies between x * 2**p + y*lo and x * 2**p + y*hi, which
    # are at most 2|y| apart; refine p until both have one sign
    u, v = 106 * x + 333 * y, 113 * x + 355 * y
    if u > 0 < v or u < 0 > v:
        return 1 if u > 0 else -1
    for p in _precisions(64, "pi comparison"):
        lo, hi = _pi_fixed(p)
        xs = x << p
        a, b = xs + y * lo, xs + y * hi
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1


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
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return self.q0, self.q0
        # the width |b| (hi - lo) / (d 2**p) is below 2**(|b| bits - d bits
        # + 2 - p); p is rounded up to a power of two, at least 64, as the
        # refinement loops ask and cache
        p = math.ceil(digits * math.log2(10)) + abs(b).bit_length() - d.bit_length() + 2
        p = 1 << max(6, (p - 1).bit_length())
        lo, hi = sorted((a << p) + b * end for end in _pi_fixed(p))
        return Fraction(lo, d << p), Fraction(hi, d << p)

    def __float__(self) -> float:
        """The double nearest to the value."""
        # int / int rounds correctly like float(Fraction), so once both ends
        # of the pi bracket give one double, sign of zero included, the
        # value between them rounds to it
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return a / d
        for p in _precisions(64, "float conversion"):
            lo, hi = _pi_fixed(p)
            x, y = ((a << p) + b * lo) / (d << p), ((a << p) + b * hi) / (d << p)
            if x == y and math.copysign(1, x) == math.copysign(1, y):
                return x

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
    # |x| <= (|a| + |b| * 355/113) / d < 333/113 < pi: already reduced
    if 113 * abs(a) + 355 * abs(b) < 333 * d:
        return x
    # y = q0/(2pi) + (q1 - 1)/2 = (a/pi + b - d)/(2d) is irrational; m =
    # ceil(y).  With lo <= pi * 2**p <= hi, y lies between the rationals
    # (a * 2**p + (b - d) * P) / (2d * P) at P = lo, hi
    v, w = b - d, 2 * d
    for p in _precisions(64 + max(0, a.bit_length() - d.bit_length()), "angle reduction"):
        lo, hi = _pi_fixed(p)
        us = a << p
        clo = -(-(us + v * lo) // (w * lo))
        if clo == -(-(us + v * hi) // (w * hi)):
            return _raw(a, b - 2 * clo * d, d) if clo else x


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
    four quotients of those ends.  p is refined until their floors agree.
    """
    r = _ratio_ints(x, s)
    if r is not None:
        return r[0] // r[1]
    xa, xb, d = x.a, x.b, x.d
    sa, sb, e = s.a, s.b, s.d
    for p in _precisions(64, "ratio floor"):
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
