"""The continuity trichotomy for the dyadic semigroup of a spectrum set.

Verdicts:

* NOT_STRONGLY_CONTINUOUS -- a feasible thread keeps |1 - point| >= delta
  at every level of the search horizon AND a source primitive certifies
  that the pattern continues (full circles, or lattice antipode-closure).
* UNIFORMLY_CONTINUOUS -- sup |1 - z| over the level sets decays
  consistently with rate 1/2^n below tolerance, and the whole spectrum is
  bounded, which yields the symbolic bound |1 - exp(z/2^n)| <= R e^R / 2^n.
* STRONGLY_CONTINUOUS_NOT_UNIFORM -- antipodal pairs persist at infinitely
  many levels (certified symbolically, never extrapolated) while every
  feasible thread is eventually principal, so points converge pointwise.
* INCONCLUSIVE -- none of the certificates closed; the evidence gathered
  is reported as-is.

Everything the verdict relies on is replayable: the report stores the
spectrum, witnesses, levels, constants and parameters used, as exact
values.  The report's sentences are written from them by `cli`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional, Union

from .levels import Component, LevelCache, LevelPoint
from .realbounds import exp_bounds, sqrt_bounds
from .records import record
from .spectrum import (
    BOUNDED_PARTS,
    ConsistencyError,
    ILattice,
    PrimeFamily,
    SectionFamilyReport,
    SectionPoints,
    SpectrumSet,
    VLine,
    antipode_level_union,
    has_bounded_section,
)
from .threads import (
    Thread,
    divergence_search,
    persistence_certificate,
    verify_witness,
)


class Verdict(enum.Enum):
    UNIFORMLY_CONTINUOUS = "UniformlyContinuous"
    STRONGLY_CONTINUOUS_NOT_UNIFORM = "StronglyContinuousNotUniform"
    NOT_STRONGLY_CONTINUOUS = "NotStronglyContinuous"
    INCONCLUSIVE = "Inconclusive"


@record
class ClassifyParams:
    n_max: int = 12
    K: int = 4  # inert: validated and printed, level n needs no squaring
    search_depth: int = 30
    node_budget: int = 20000
    delta: Fraction = Fraction(7, 5)
    epsilons: tuple[Fraction, ...] = (
        Fraction(1, 10),
        Fraction(1, 100),
        Fraction(1, 1000),
    )
    float_digits: int = 12
    ext_zero: bool = True


@record
class UniformRateBound:
    constant: Fraction  # sup |1 - z| <= constant / 2^n over the table
    symbolic_constant: Optional[Fraction]  # R e^R bound valid for every n
    n_range: tuple[int, int]
    tolerance: Fraction
    u_table: tuple[tuple[int, Fraction, Fraction], ...]  # (n, lo, hi) of sup


@record
class AntipodalLevels:
    levels: tuple[int, ...]
    # per level: its first antipodal point, or its first component when
    # the antipodal set is not a short list of points
    samples: tuple[tuple[int, Union[LevelPoint, Component]], ...]


@record
class WitnessThread:
    thread: Thread
    delta: Fraction
    depth: int
    source: Union[VLine, ILattice]  # the primitive that makes the pattern persist
    closed_from: Optional[int]  # a rational lattice's antipode-closed level


@record
class PointwiseCertificate:
    last_branch_level: int


@record
class ClassificationReport:
    verdict: Verdict
    spectrum: SpectrumSet
    witness: Optional[WitnessThread]
    prefix: Optional[Thread]  # a divergent prefix no primitive certifies
    uniform_bound: Optional[UniformRateBound]
    antipodal: Optional[AntipodalLevels]
    pointwise: Optional[PointwiseCertificate]
    sections: SectionFamilyReport
    params: ClassifyParams


# ---------------------------------------------------------------------------
# uniform-convergence check

def _bounded_radius_sq(Z: SpectrumSet) -> Optional[Fraction]:
    """Rational upper bound for sup |z|^2 over Z, None if Z is unbounded."""
    worst = Fraction(0)
    for p in Z.primitives:
        # a family's points are not built: its a_j grow without bound
        if isinstance(p, PrimeFamily) or not isinstance(S := p.section, BOUNDED_PARTS):
            return None
        im_b = Fraction(0)
        for v in S.values if isinstance(S, SectionPoints) else (S.lo, S.hi):
            lo, hi = v.bounds(6)
            im_b = max(im_b, abs(lo), abs(hi))
        worst = max(worst, max(abs(p.re_lo), abs(p.re_hi)) ** 2 + im_b**2)
    return worst


def _symbolic_uniform_constant(r_sq: Fraction) -> Fraction:
    """For Z with sup |z|^2 <= r_sq: |1 - exp(z/2^n)| <= |z| e^{|z|} / 2^n,
    so R e^R works."""
    R = sqrt_bounds(r_sq, 6)[1]
    return R * exp_bounds(R, 6)[1]


def check_uniform(
    Z: SpectrumSet, cache: LevelCache, params: ClassifyParams, digits: int = 40
) -> Optional[UniformRateBound]:
    """Certified decay of u_n = sup |1 - z| over the level sets.

    Level n is the projection of the inverse limit, so u_n is the sup of
    |1 - projection| over its points.  The bound is returned only when
    the spectrum is bounded (making the 1/2^n decay a theorem, not an
    extrapolation) and the computed table confirms it by decaying below
    the coarsest configured tolerance.

    The gates run cheapest first: boundedness needs no exp, row n_max
    alone settles the tolerance gate, and the symbolic constant, whose
    exp grows with R, is computed only once every gate has passed.
    """
    r_sq = _bounded_radius_sq(Z)
    if r_sq is None:
        return None
    tol = max(params.epsilons)
    scale = 10**digits
    # n -> sup |1 - z| over level n in [lo, hi] * 10**-digits
    rows: dict[int, tuple[int, int]] = {}

    def row(n: int) -> tuple[int, int]:
        rows[n] = cache.sup_sqrt(n, digits)
        return rows[n]

    # gates: final value under tolerance, nonincreasing tail
    if not Fraction(row(params.n_max)[1], scale) < tol:
        return None
    for n in range(params.n_max):
        row(n)
    tail = [rows[n][1] for n in range(max(0, params.n_max - 4), params.n_max + 1)]
    if any(h2 > h1 for h1, h2 in zip(tail, tail[1:])):
        return None
    return UniformRateBound(
        constant=Fraction(max(hi << n for n, (_, hi) in rows.items()), scale),
        symbolic_constant=_symbolic_uniform_constant(r_sq),
        n_range=(0, params.n_max),
        tolerance=tol,
        u_table=tuple((n, Fraction(lo, scale), Fraction(hi, scale)) for n, (lo, hi) in sorted(rows.items())),
    )


# ---------------------------------------------------------------------------
# persistent antipodes


def check_not_uniform(
    Z: SpectrumSet,
    cache: LevelCache,
    params: ClassifyParams,
    sections: SectionFamilyReport,
) -> Optional[AntipodalLevels]:
    """Levels up to n_max whose level set holds a pair z, -z, each with a
    sample; None when there are none and the section union is finite.
    A pair lies in level n exactly when two points of one section differ in
    im by an odd multiple of 2^n * pi, so these are the section levels, and
    antipodes are taken only there: each sample is read off the level's
    `cache.antipodes(n)`.  A lattice with an irrational step is the
    exception: its dense orbit closes up to the full circle, which the
    sections cannot see, so then every level is reported.
    A pair keeps sup |1 - .| >= |z|, so pairs that persist (`sections.holds`
    is False, certified by a tail) block uniform convergence.
    """
    # the point 1, where a prime family's image accumulates, is in neither
    # route: with a point at im = pi on its section, level 0 (-1 and 1) goes
    # unreported, yet no verdict turns on it (|1 - 1| = 0, families are unbounded)
    if any(isinstance(p, ILattice) and p.step.q0 != 0 for p in Z.primitives):
        levels = range(params.n_max + 1)
    else:
        levels = sorted(n for n in sections.union_levels if n <= params.n_max)
    samples = []
    for n in levels:
        sample = cache.antipodal_sample(n)
        if sample is None:
            raise ConsistencyError(f"level {n} holds a section pair but no antipodal pair")
        samples.append((n, sample))
    if not samples and sections.holds:
        return None
    return AntipodalLevels(tuple(levels), tuple(samples))


# ---------------------------------------------------------------------------
# pointwise convergence certificate (finite-point towers)


def pointwise_certificate(
    Z: SpectrumSet, sections: SectionFamilyReport
) -> Optional[PointwiseCertificate]:
    """Every feasible thread is eventually principal, so all projections
    converge to 1 pointwise.

    The log-modulus of a thread halves exactly per level, so each thread
    lives over one fixed source real part forever; pointwise convergence
    decomposes section by section.  A negated branch is feasible only at a
    level where the circle section holds an antipodal pair.  For spectra
    built from bounded primitives and prime families, each section's pair
    levels are either finite (bounded sections shrink below the half-turn
    width; point pairs carry at most one level each) or follow a family
    schedule on which every thread commits to a single chain index (angle
    differences across chains keep a prime in the denominator), so each
    thread branches finitely often and is eventually principal.

    Vertical lines and lattices are rejected: their sections keep the
    shift condition alive at all large levels, and divergent threads
    exist (the witness route covers them).  The classifier asks only once
    antipodes persist, and a bounded section's pair levels end, so the
    persistence comes from a prime family.
    """
    if not Z.primitives or not all(map(has_bounded_section, Z.primitives)):
        return None
    if any(s.tail_all_from is not None for s in sections.sections):
        return None
    known = [n for s in sections.sections for n in s.levels | s.tail_extra]
    return PointwiseCertificate(last_branch_level=max(known, default=-1))


# ---------------------------------------------------------------------------
# witness route


def check_not_strong(
    Z: SpectrumSet, cache: LevelCache, params: ClassifyParams
) -> tuple[Optional[WitnessThread], Optional[Thread]]:
    """Witness thread with a persistence certificate, or the divergent
    prefix that no source primitive certifies (second slot)."""
    th = divergence_search(
        cache, params.search_depth, params.delta, params.node_budget
    )
    if th is None:
        return None, None
    if not verify_witness(cache, th, params.search_depth, params.delta):
        raise ConsistencyError("the divergence search returned a thread that fails re-verification")
    cert = persistence_certificate(Z, cache, th, params.search_depth)
    if cert is None:
        return None, th
    return WitnessThread(th, params.delta, params.search_depth, *cert), None


# ---------------------------------------------------------------------------
# the classifier


def classify(
    Z: SpectrumSet,
    params: ClassifyParams = ClassifyParams(),
    cache: Optional[LevelCache] = None,
) -> ClassificationReport:
    """The verdict for Z with its evidence.  `cache` holds level sets of Z
    to reuse and fill, so a caller can walk the witness again cheaply; a
    fresh one is made by default."""
    if cache is None:
        cache = LevelCache(Z)
    elif cache.Z != Z:
        raise ValueError("the level cache belongs to another spectrum")
    sections = antipode_level_union(Z, params.n_max)
    witness, prefix = check_not_strong(Z, cache, params)
    uniform = antipodal = pointwise = None
    if witness is not None:
        verdict = Verdict.NOT_STRONGLY_CONTINUOUS
        antipodal = check_not_uniform(Z, cache, params, sections)
    else:
        uniform = check_uniform(Z, cache, params)
        if uniform is not None:
            verdict = Verdict.UNIFORMLY_CONTINUOUS
        else:
            antipodal = check_not_uniform(Z, cache, params, sections)
            if not sections.holds:
                pointwise = pointwise_certificate(Z, sections)
            verdict = (
                Verdict.INCONCLUSIVE
                if pointwise is None
                else Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM
            )

    return ClassificationReport(
        verdict=verdict,
        spectrum=Z,
        witness=witness,
        prefix=prefix,
        uniform_bound=uniform,
        antipodal=antipodal,
        pointwise=pointwise,
        sections=sections,
        params=params,
    )
