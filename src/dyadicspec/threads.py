"""Inverse-limit points as branch-bit threads over the squaring tower.

A thread is a base point at some level plus a sequence of square-root
branch bits (0 = principal root, 1 = negated root).  `walk` steps it
level by level, halving the log-modulus and applying
angle -> angle/2 + bit*pi, reduced to (-pi, pi]; feasibility means every
point stays inside its level set.  `search` is the one budgeted
depth-first search over the tree of feasible threads.

The divergence search looks for threads that keep |1 - point| above a
threshold at every represented level; witnesses re-walk from scratch in
exact arithmetic.  A prefix alone never outruns its depth, so verdict
consumers pair it with a persistence certificate: a source primitive
(vertical line, or vertical lattice) whose level sets provably contain
the negated root of every member at all deeper levels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Union

from .exactnum import PiLinear, _mk, _v2, reduce_mod_2pi
from .levels import (
    LevelCache,
    LevelPoint,
    component_sup_candidates,
    membership,
    sup_abs_one_minus,
)
from .realbounds import abs1m_sq_bounds, compare_abs1m_sq, interval_sqrt
from .records import record
from .spectrum import BOUNDED_PARTS, ILattice, SpectrumSet, VLine


class InfeasibleThread(ValueError):
    def __init__(self, level: int, point: LevelPoint):
        self.level = level
        self.point = point
        super().__init__(f"thread leaves the level set at level {level}")


@record
class Thread:
    base_level: int
    base: LevelPoint
    bits: tuple[int, ...] = ()
    tail_principal: bool = True

    def bit_at(self, level: int) -> int:
        """Branch bit consumed when stepping from level-1 to level."""
        idx = level - self.base_level - 1
        if idx < 0:
            raise ValueError("level at or below the base")
        if idx < len(self.bits):
            return self.bits[idx]
        if self.tail_principal:
            return 0
        raise ValueError(f"thread prefix ends before level {level}")


def step_point(p: LevelPoint, bit: int) -> LevelPoint:
    # angle/2 + bit*pi = (a + (b + 2*bit*d)*pi) / 2d
    x = p.angle
    angle = _mk(x.a, x.b + 2 * bit * x.d, 2 * x.d)
    return LevelPoint(p.log_mod / 2, reduce_mod_2pi(angle))


def walk(cache: LevelCache, th: Thread, n: int) -> Iterator[tuple[int, LevelPoint]]:
    """Yield (level, point) from the thread's base level through level n,
    each point checked to lie in its level set."""
    if n < th.base_level:
        raise ValueError("level below the thread base")
    p = th.base
    for level in range(th.base_level, n + 1):
        if level > th.base_level:
            p = step_point(p, th.bit_at(level))
        if not membership(cache.level(level), p):
            raise InfeasibleThread(level, p)
        yield level, p


def evaluate(cache: LevelCache, th: Thread, n: int) -> LevelPoint:
    """The thread's point at level n, with feasibility checked en route."""
    for _, p in walk(cache, th, n):
        pass
    return p


def feasible_branches(
    cache: LevelCache, n: int, p: LevelPoint
) -> tuple[tuple[int, LevelPoint], ...]:
    """The branch bits whose square root of p stays inside level n+1."""
    if not membership(cache.level(n), p):
        raise ValueError(f"point not in the level-{n} set")
    out = []
    for bit in (0, 1):
        q = step_point(p, bit)
        if membership(cache.level(n + 1), q):
            out.append((bit, q))
    return tuple(out)


# ---------------------------------------------------------------------------
# budgeted search


def search_seeds(cache: LevelCache, levels: Iterable[int]) -> Iterator[tuple[int, LevelPoint]]:
    """(level, point) starts for `search`, farthest from 1 first within each
    level; a level set is built only when its seeds are reached."""
    for n in levels:
        seeds: list[LevelPoint] = []
        for c in cache.level(n).components:
            seeds.extend(component_sup_candidates(c))
        uniq = list(dict.fromkeys(seeds))
        uniq.sort(key=lambda p: (-_approx_abs1m_sq(p), float(p.angle), float(p.log_mod)))
        for p in uniq:
            yield n, p


def _approx_abs1m_sq(p: LevelPoint) -> float:
    # ordering heuristic only: a point too far out for floats counts as infinitely far
    try:
        m = math.exp(float(p.log_mod))
        return (1 - m) ** 2 + 2 * m * (1 - math.cos(float(p.angle)))
    except OverflowError:
        return math.inf


def search(
    cache: LevelCache,
    seeds: Iterable[tuple[int, LevelPoint]],
    depth: int,
    keep: Callable[[int, LevelPoint], bool],
    node_budget: int,
) -> Optional[Thread]:
    """A thread from one of the seeds whose every point, through level
    `depth`, satisfies keep(level, point); None once the seeds or the
    budget of stack pops run out.

    Depth-first over the feasible branches, greedy on |1 - z|: the child
    farther from 1 is tried first, the principal root on a tie.
    """
    budget = node_budget
    for n0, seed in seeds:
        if not keep(n0, seed):
            continue
        stack: list[tuple[int, LevelPoint, tuple[int, ...]]] = [(n0, seed, ())]
        while stack and budget > 0:
            level, p, bits = stack.pop()
            budget -= 1
            if level == depth:
                return Thread(n0, seed, bits)
            children = [
                (bit, q) for bit, q in feasible_branches(cache, level, p) if keep(level + 1, q)
            ]
            # push the larger-|1-z| child last so it pops first
            children.sort(key=lambda bq: (_approx_abs1m_sq(bq[1]), -bq[0]))
            for bit, q in children:
                stack.append((level + 1, q, bits + (bit,)))
        if budget <= 0:
            return None
    return None


def divergence_search(
    cache: LevelCache,
    depth: int,
    delta: Fraction,
    node_budget: int = 20000,
) -> Optional[Thread]:
    """Search for a feasible thread with |1 - point|^2 >= delta^2 at every
    level from its base down to `depth`.

    Several base levels are tried because early levels can pinch (a
    lattice tower starts at the single point 1; an off-axis line needs the
    modulus near 1 before the band exceeds the threshold).  A returned
    witness is exact; None only means nothing was found at this effort.

    `search` returns a thread only from a node at level `depth`: a point
    of that level set with |1 - z|^2 >= delta^2.  When every section part
    is bounded, a certified sup over that level set below delta^2 rules
    out every such node, so the search is skipped as it could only return
    None.  Lines and lattices keep a point near -1 at every level, so
    their sup never drops and they go straight to the search.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    delta_sq = Fraction(delta) ** 2
    if all(isinstance(p.section, BOUNDED_PARTS) for p in cache.Z.primitives) and (
        sup_abs_one_minus(cache.level(depth), 15).sq_hi < delta_sq
    ):
        return None
    base_levels = range(0, min(depth, max(9, depth * 2 // 3)))

    def keep(level: int, p: LevelPoint) -> bool:
        return compare_abs1m_sq(p.log_mod, p.angle, delta_sq) >= 0

    return search(cache, search_seeds(cache, base_levels), depth, keep, node_budget)


def verify_witness(cache: LevelCache, th: Thread, depth: int, delta: Fraction) -> bool:
    """Independent re-check of a witness from scratch."""
    delta_sq = Fraction(delta) ** 2
    try:
        return all(
            compare_abs1m_sq(p.log_mod, p.angle, delta_sq) >= 0
            for _, p in walk(cache, th, max(depth, th.base_level))
        )
    except InfeasibleThread:
        return False


def persistence_certificate(
    Z: SpectrumSet, cache: LevelCache, th: Thread, depth: int
) -> Optional[tuple[Union[VLine, ILattice], Optional[int]]]:
    """The source primitive whose levels make the witness pattern continue
    past the search depth, and the level from which they are antipode-closed.

    A vertical line keeps every level set a full circle, and so does a
    lattice with a dense angle orbit (no level is given for either); a
    lattice with a rational step keeps level sets antipode-closed from the
    level given (so the negated root of any member stays inside).  In each
    case a point with |angle| >= pi/2 always has a child with |angle| >=
    pi/2, hence the divergence band extends to every level.  The witness
    must live on the certifying primitive's own tower.
    """
    half_pi = PiLinear(0, Fraction(1, 2))
    p = evaluate(cache, th, depth)
    mag = -p.angle if p.angle.sign() < 0 else p.angle
    if (mag - half_pi).sign() < 0:
        return None
    for prim in Z.primitives:
        if not isinstance(prim, (VLine, ILattice)):
            continue
        # the caller's cache already holds the levels of a one-primitive Z
        sub = cache if cache.Z.primitives == (prim,) else LevelCache(SpectrumSet((prim,)))
        try:
            evaluate(sub, th, depth)
        except (InfeasibleThread, ValueError):
            continue
        if isinstance(prim, VLine) or prim.step.q0 != 0:
            return prim, None
        # antipode-closure of the angle orbit holds from some level on (the
        # orbit step eventually divides 1), keeping both square roots of
        # every member feasible forever
        return prim, _v2(prim.step.q1.numerator)
    return None


# ---------------------------------------------------------------------------
# convergence rate


@record
class RateRow:
    level: int
    dist_lo: Fraction  # enclosure of |1 - point|
    dist_hi: Fraction
    angle: PiLinear
    log_mod: Fraction


@record
class RateReport:
    constant: Fraction  # certified: |1 - point| <= constant / 2^n on the table
    rows: tuple[RateRow, ...]


def convergence_rate(cache: LevelCache, th: Thread, n_max: int, digits: int = 30) -> RateReport:
    """Per-level |1 - point| table and the scaled constant max 2^n * value.

    Only meaningful for eventually-principal threads; a bare prefix with
    an unspecified tail is rejected.
    """
    if not th.tail_principal:
        raise ValueError("rate requires an eventually-principal thread")
    rows: list[RateRow] = []
    constant = Fraction(0)
    for n, p in walk(cache, th, n_max):
        sq = abs1m_sq_bounds(p.log_mod, p.angle, digits)
        lo, hi = interval_sqrt(sq, digits)
        rows.append(RateRow(n, lo, hi, p.angle, p.log_mod))
        constant = max(constant, hi * 2**n)
    return RateReport(constant, tuple(rows))
