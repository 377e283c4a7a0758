"""Seeded input generator owned by the benchmark.

The spectrum grammar is a copy of ``random_spectrum`` in the test suite's
``conftest.py``, made so that an edit to the tests cannot change the
benchmark's inputs.  It draws the same random numbers in the same order,
but it writes config text instead of building objects: the program only
ever sees that text.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4]))


def small_pilinear(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A pi-linear number q0 + q1*pi as the pair (q0, q1)."""
    q1 = small_fraction(rng)
    q0 = Fraction(0) if rng.random() < 0.6 else small_fraction(rng)
    return q0, q1


def _pl_value(x: tuple[Fraction, Fraction]) -> float:
    # distinct pairs with these small denominators differ by far more than
    # float rounding, so a float order is the exact order here
    return float(x[0]) + float(x[1]) * math.pi


def pl_text(x: tuple[Fraction, Fraction]) -> str:
    """Config literal for q0 + q1*pi, in the form the config parser reads."""
    q0, q1 = x
    if q1 == 0:
        return str(q0)
    pi_part = f"{q1}*pi" if q1 > 0 else f"-{-q1}*pi"
    if q0 == 0:
        return pi_part
    return f"{q0}+{pi_part}" if q1 > 0 else f"{q0}{pi_part}"


def pl_parse(text: str) -> tuple[Fraction, Fraction]:
    """Inverse of :func:`pl_text`."""
    if not text.endswith("*pi"):
        return Fraction(text), Fraction(0)
    head = text[: -len("*pi")]
    cut = max(head.rfind("+"), head.rfind("-"))
    if cut <= 0:
        return Fraction(0), Fraction(head)
    return Fraction(head[:cut]), Fraction(head[cut:])


def mirror(line: str) -> str:
    """The primitive's reflection in the real axis: every im value negated."""

    def neg(text: str) -> str:
        q0, q1 = pl_parse(text)
        return pl_text((-q0, -q1))

    def neg_range(m: re.Match) -> str:
        lo, hi = m.group(2).split(",")
        return f"{m.group(1)}[{neg(hi)},{neg(lo)}]"

    line = re.sub(r"(im=)\[([^\]]*)\]", neg_range, line)
    return re.sub(r"((?:im|base)=)([^\s\[]+)", lambda m: m.group(1) + neg(m.group(2)), line)


def random_primitive(rng: random.Random, re: Fraction) -> str:
    kind = rng.choice(["point", "point", "segment", "lattice", "rect", "vline", "family"])
    if kind == "point":
        return f"point re={re} im={pl_text(small_pilinear(rng))}"
    if kind == "segment":
        a, b = small_pilinear(rng), small_pilinear(rng)
        if _pl_value(a) > _pl_value(b):
            a, b = b, a
        return f"vsegment re={re} im=[{pl_text(a)},{pl_text(b)}]"
    if kind == "lattice":
        if rng.random() < 0.85:
            step = (Fraction(0), Fraction(rng.randint(1, 4), rng.choice([1, 2, 3, 4])))
        else:
            # nonzero rational part makes the angle orbit dense
            step = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(0, 2), 2))
        base = small_pilinear(rng)
        return f"ilattice re={re} base={pl_text(base)} step={pl_text(step)}"
    if kind == "rect":
        hi = re + Fraction(rng.randint(0, 2), 2)
        a, b = small_pilinear(rng), small_pilinear(rng)
        if _pl_value(a) > _pl_value(b):
            a, b = b, a
        return f"rect re=[{re},{hi}] im=[{pl_text(a)},{pl_text(b)}]"
    if kind == "vline":
        return f"vline re={re}"
    return f"primefamily nseq=2j J={rng.randint(1, 3)}"


def random_spectrum(rng: random.Random) -> str:
    """Config text for a spectrum of one to three primitives."""
    count = rng.randint(1, 3)
    res = [small_fraction(rng) for _ in range(count)]
    if count > 1 and rng.random() < 0.5:
        res[1] = res[0]  # force shared sections
    return "".join(f"spectrum {random_primitive(rng, re)}\n" for re in res)


def section_points(rng: random.Random, count: int) -> str:
    """Config text for ``count`` distinct points on one seeded vertical section."""
    t = small_fraction(rng)
    angles: list[tuple[Fraction, Fraction]] = []
    while len(angles) < count:
        a = small_pilinear(rng)
        if a not in angles:
            angles.append(a)
    return "".join(f"spectrum point re={t} im={pl_text(a)}\n" for a in angles)
