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
witnesses, levels, constants and parameters used.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional

from .levels import (
    LevelCache,
    antipodal_set,
    enumerate_points,
    sup_abs_one_minus,
)
from .realbounds import exp_bounds, interval_sqrt, sqrt_bounds
from .records import record
from .spectrum import (
    BOUNDED_PARTS,
    PrimeFamily,
    SectionFamilyReport,
    SectionPoints,
    SpectrumSet,
    antipode_level_union,
    image_closedness,
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
    persistent: bool
    reason: Optional[str]
    pair_samples: tuple[str, ...]


@record
class WitnessThread:
    thread: Thread
    delta: Fraction
    depth: int
    persistence: str


@record
class PointwiseCertificate:
    last_branch_level: int
    reason: str


@record
class ClassificationReport:
    verdict: Verdict
    witness: Optional[WitnessThread]
    uniform_bound: Optional[UniformRateBound]
    antipodal: Optional[AntipodalLevels]
    pointwise: Optional[PointwiseCertificate]
    sections: SectionFamilyReport
    closedness_by_level: tuple[tuple[int, bool], ...]
    params: ClassifyParams
    ext_zero_assumed: bool
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# uniform-convergence check

def _bounded_radius_sq(Z: SpectrumSet) -> Optional[Fraction]:
    """Rational upper bound for sup |z|^2 over Z, None if Z is unbounded."""
    worst = Fraction(0)
    for p in Z.primitives:
        S = p.section
        if isinstance(p, PrimeFamily) or not isinstance(S, BOUNDED_PARTS):
            return None
        im_b = Fraction(0)
        for v in S.values if isinstance(S, SectionPoints) else (S.lo, S.hi):
            lo, hi = v.bounds(6)
            im_b = max(im_b, abs(lo), abs(hi))
        worst = max(worst, max(abs(p.re_lo), abs(p.re_hi)) ** 2 + im_b**2)
    return worst


def _symbolic_uniform_constant(Z: SpectrumSet) -> Optional[Fraction]:
    """For bounded Z: |1 - exp(z/2^n)| <= |z| e^{|z|} / 2^n, so R e^R works."""
    r_sq = _bounded_radius_sq(Z)
    if r_sq is None:
        return None
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
    """
    sym = _symbolic_uniform_constant(Z)
    if sym is None:
        return None
    tol = max(params.epsilons)
    table: list[tuple[int, Fraction, Fraction]] = []
    constant = Fraction(0)
    for n in range(params.n_max + 1):
        sup = sup_abs_one_minus(cache.level(n), digits)
        lo, hi = interval_sqrt((sup.sq_lo, sup.sq_hi), digits)
        table.append((n, lo, hi))
        constant = max(constant, hi * 2**n)
    # gates: final value under tolerance, nonincreasing tail
    final_hi = table[-1][2]
    if not final_hi < tol:
        return None
    tail = table[max(0, len(table) - 5) :]
    for (_, _, h1), (_, _, h2) in zip(tail, tail[1:]):
        if h2 > h1:
            return None
    return UniformRateBound(
        constant=constant,
        symbolic_constant=sym,
        n_range=(0, params.n_max),
        tolerance=tol,
        u_table=tuple(table),
    )


# ---------------------------------------------------------------------------
# persistent antipodes


def check_not_uniform(
    Z: SpectrumSet,
    cache: LevelCache,
    params: ClassifyParams,
    sections: Optional[SectionFamilyReport] = None,
) -> Optional[AntipodalLevels]:
    """Levels with antipodal pairs in the level set, with a symbolic
    persistence argument when the pattern is provably infinite.

    Level n is the projection of the inverse limit, so a pair z, -z in it
    keeps sup |1 - .| >= |z|, which blocks uniform convergence whenever
    pairs persist.
    """
    if sections is None:
        sections = antipode_level_union(Z, params.n_max)
    levels = []
    samples: list[str] = []
    for n in range(params.n_max + 1):
        A = antipodal_set(cache.level(n))
        if not A.is_empty():
            levels.append(n)
            pts = enumerate_points(A, 1)
            if pts:
                samples.append(f"n={n}: angle {pts[0].angle}")
            else:
                samples.append(f"n={n}: {type(A.components[0]).__name__}")
    persistent = False
    reason = None
    for s in sections.sections:
        if s.tail_all_from is not None:
            persistent = True
            reason = (
                f"section t={s.t}: the shift condition holds for every level "
                f">= {s.tail_all_from}"
            )
            break
        if s.unbounded_schedule is not None:
            persistent = True
            reason = f"section t={s.t}: antipodal levels {s.unbounded_schedule}"
            break
    if not levels and not persistent:
        return None
    return AntipodalLevels(tuple(levels), persistent, reason, tuple(samples))


# ---------------------------------------------------------------------------
# pointwise convergence certificate (finite-point towers)


def pointwise_certificate(
    Z: SpectrumSet,
    cache: LevelCache,
    params: ClassifyParams,
    sections: Optional[SectionFamilyReport] = None,
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
    exist (the witness route covers them).
    """
    if not Z.primitives or not all(isinstance(p.section, BOUNDED_PARTS) for p in Z.primitives):
        return None
    if sections is None:
        sections = antipode_level_union(Z, params.n_max)
    last = -1
    for s in sections.sections:
        if s.tail_all_from is not None:
            return None
        known = s.levels | s.tail_extra
        if known:
            last = max(last, max(known))
    has_family = any(isinstance(p, PrimeFamily) for p in Z.primitives)
    if not has_family:
        # purely bounded: branch levels are globally finite
        for m in range(last + 1, last + 4):
            if not antipodal_set(cache.level(m)).is_empty():
                return None
        reason = (
            f"branching levels are exactly the section pair levels, all <= {last}; "
            "beyond them every feasible branch is principal, so angles halve and "
            "all threads converge"
        )
    else:
        reason = (
            f"last materialized branching level {last}; every branching either "
            "keeps the thread principal inside a bounded component or commits it "
            "to a single prime-family chain (cross-chain angle differences keep a "
            "prime denominator), and each chain carries finitely many pair "
            "levels, so every thread branches finitely often and is eventually "
            "principal"
        )
    return PointwiseCertificate(last_branch_level=last, reason=reason)


# ---------------------------------------------------------------------------
# witness route


def check_not_strong(
    Z: SpectrumSet, cache: LevelCache, params: ClassifyParams
) -> tuple[Optional[WitnessThread], Optional[str]]:
    """Witness thread with a persistence certificate, or a note about an
    uncertified prefix (second slot)."""
    th = divergence_search(
        cache, params.search_depth, params.delta, params.node_budget
    )
    if th is None:
        return None, None
    if not verify_witness(cache, th, params.search_depth, params.delta):
        return None, "search produced a thread that failed re-verification (bug)"
    cert = persistence_certificate(Z, cache, th, params.search_depth)
    if cert is None:
        return None, (
            f"a depth-{params.search_depth} divergent prefix exists but no source "
            "primitive certifies that the pattern persists; not used for a verdict"
        )
    return WitnessThread(th, params.delta, params.search_depth, cert), None


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
    closed_by_level = tuple(
        (n, image_closedness(Z, n).closed) for n in range(min(params.n_max, 8) + 1)
    )
    h1_ok = all(c for _, c in closed_by_level)
    h2_ok = sections.holds
    notes: list[str] = [
        "classification concerns the dyadic semigroup induced by the zero "
        "extension; nonzero extensions are out of scope",
        "automatic-continuity hypotheses: image closedness "
        + ("holds" if h1_ok else "fails")
        + ", section level union "
        + ("finite" if sections.holds else "infinite")
        + (
            "; with the assumed trivial extension group both hypotheses of the "
            "automatic-continuity route are met"
            if h1_ok and h2_ok and params.ext_zero
            else ""
        ),
    ]
    if any(isinstance(p, PrimeFamily) for p in Z.primitives):
        J = max(p.J for p in Z.primitives if isinstance(p, PrimeFamily))
        notes.append(
            f"prime family truncated at J={J} for level computations; the family "
            "itself is infinite and its antipodal schedule is certified symbolically"
        )
    if params.ext_zero:
        notes.append("Ext(X) = 0 assumed (user flag); not computed by this tool")
    else:
        notes.append(
            "ext_zero=false: the automatic-continuity conclusions need the zero "
            "extension; verdict applies to the trivial-extension semigroup only"
        )

    witness, prefix_note = check_not_strong(Z, cache, params)
    if prefix_note:
        notes.append(prefix_note)
    uniform = None
    antipodal = None
    pointwise = None

    if witness is not None:
        verdict = Verdict.NOT_STRONGLY_CONTINUOUS
        antipodal = check_not_uniform(Z, cache, params, sections)
    else:
        uniform = check_uniform(Z, cache, params)
        if uniform is not None:
            verdict = Verdict.UNIFORMLY_CONTINUOUS
        else:
            antipodal = check_not_uniform(Z, cache, params, sections)
            if antipodal is not None and antipodal.persistent:
                pointwise = pointwise_certificate(Z, cache, params, sections)
                if pointwise is not None:
                    verdict = Verdict.STRONGLY_CONTINUOUS_NOT_UNIFORM
                else:
                    verdict = Verdict.INCONCLUSIVE
                    notes.append(
                        "persistent antipodes found but pointwise convergence "
                        "could not be certified"
                    )
            else:
                verdict = Verdict.INCONCLUSIVE
                notes.append("no certificate closed at the configured depths")

    return ClassificationReport(
        verdict=verdict,
        witness=witness,
        uniform_bound=uniform,
        antipodal=antipodal,
        pointwise=pointwise,
        sections=sections,
        closedness_by_level=closed_by_level,
        params=params,
        ext_zero_assumed=params.ext_zero,
        notes=tuple(notes),
    )
