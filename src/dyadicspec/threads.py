"""Inverse-limit points as branch-bit threads over the squaring tower.

A thread is a base point at some level plus a sequence of square-root
branch bits (0 = principal root, 1 = negated root).  `walk` steps it
level by level, halving the log-modulus and applying
angle -> angle/2 + bit*pi, reduced to (-pi, pi]; feasibility means every
point stays inside its level set.  `grow` builds the greedy thread of a
level-0 seed in the same single pass.  `search` is the one budgeted
depth-first search over the tree of feasible threads; of a node's two
roots it tries the negated one first, which is never nearer to 1 (the
principal one when the node's angle is pi, where they tie).

The divergence search looks for threads that keep |1 - point| above a
threshold at every represented level; witnesses re-walk from scratch in
exact arithmetic.  Both stop where `tail_closes` certifies the rest of
the thread: bit 1, kept and feasible at every level.  Verdict consumers
pair a thread with a persistence certificate: a source primitive
(vertical line, or vertical lattice) whose level sets provably contain
the negated root of every member at all deeper levels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Union

from .exactnum import ComputationLimit, PI, PiLinear, _mk, _v2, reduce_mod_2pi, scale_pow2
from .levels import LevelCache, LevelPoint, _log_scaled, _point, component_sup_candidates, on_line_level
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
    """A base point at `base_level` and the branch bits of the levels below
    it; past the stored bits the thread takes the principal root."""

    base_level: int
    base: LevelPoint
    bits: tuple[int, ...] = ()

    def bit_at(self, level: int) -> int:
        """Branch bit consumed when stepping from level-1 to level."""
        idx = level - self.base_level - 1
        if idx < 0:
            raise ValueError("level at or below the base")
        return self.bits[idx] if idx < len(self.bits) else 0


def step_point(p: LevelPoint, bit: int) -> LevelPoint:
    # angle/2 + bit*pi = (a + (b + 2*bit*d)*pi) / 2d, and the log-modulus halves
    x = p.angle
    angle = _mk(x.a, x.b + 2 * bit * x.d, 2 * x.d)
    return _point(_log_scaled(*p.m, 1), reduce_mod_2pi(angle))


def walk(cache: LevelCache, th: Thread, n: int) -> Iterator[tuple[int, LevelPoint]]:
    """Yield (level, point) from the thread's base level through level n,
    each point checked to lie in its level set."""
    if n < th.base_level:
        raise ValueError("level below the thread base")
    p = th.base
    for level in range(th.base_level, n + 1):
        if level > th.base_level:
            p = step_point(p, th.bit_at(level))
        if not cache.contains(level, p):
            raise InfeasibleThread(level, p)
        yield level, p


def grow(cache: LevelCache, seed: LevelPoint, n: int) -> Optional[tuple[Thread, tuple[LevelPoint, ...]]]:
    """The greedy thread from `seed` at level 0 through level n, and its
    points at levels 0..n: the principal root while it stays in the level
    set, the negated root otherwise.  Each point is checked once; None when
    the seed, or both roots of some point, leave the level set."""
    if not cache.contains(0, seed):
        return None
    bits, points = [], [seed]
    for level in range(1, n + 1):
        for bit in (0, 1):
            q = step_point(points[-1], bit)
            if cache.contains(level, q):
                break
        else:
            return None
        bits.append(bit)
        points.append(q)
    return Thread(0, seed, tuple(bits)), tuple(points)


def evaluate(cache: LevelCache, th: Thread, n: int) -> LevelPoint:
    """The thread's point at level n, with feasibility checked en route."""
    for _, p in walk(cache, th, n):
        pass
    return p


def feasible_branches(
    cache: LevelCache, n: int, p: LevelPoint
) -> tuple[tuple[int, LevelPoint], ...]:
    """The branch bits whose square root of p stays inside level n+1."""
    if not cache.contains(n, p):
        raise ValueError(f"point not in the level-{n} set")
    out = []
    for bit in (0, 1):
        q = step_point(p, bit)
        if cache.contains(n + 1, q):
            out.append((bit, q))
    return tuple(out)


# ---------------------------------------------------------------------------
# budgeted search


def search_seeds(cache: LevelCache, levels: Iterable[int]) -> Iterator[tuple[int, LevelPoint]]:
    """(level, point) starts for `search`, farthest from 1 first within each
    level; a level set is built only when its seeds are reached."""
    key = lambda p: (-_approx_abs1m_sq(p), float(p.angle), _float_or_inf(*p.m))
    for n in levels:
        for p in sorted(level_seeds(cache, n), key=key):
            yield n, p


def level_seeds(cache: LevelCache, n: int) -> list[LevelPoint]:
    """The distinct sup candidates of level n, in component order."""
    return list(dict.fromkeys(p for c in cache.level(n).components for p in component_sup_candidates(c)))


def _float_or_inf(num: int, den: int) -> float:
    # ordering heuristic only: past the float range a value reads as +-inf
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _approx_abs1m_sq(p: LevelPoint) -> float:
    # ordering heuristic only: a modulus past the float range counts as
    # infinitely far from 1, one below it as 0, where |1 - z|^2 = 1
    num, den = p.m
    try:
        m = math.exp(num / den)
        return (1 - m) ** 2 + 2 * m * (1 - math.cos(float(p.angle)))
    except OverflowError:
        return 1.0 if num < 0 else math.inf


def search(
    cache: LevelCache,
    seeds: Iterable[tuple[int, LevelPoint]],
    depth: int,
    keep: Callable[[int, LevelPoint], bool],
    node_budget: int,
    tail: Optional[Callable[[int, LevelPoint], bool]] = None,
) -> Optional[Thread]:
    """A thread from one of the seeds whose every point, through level
    `depth`, satisfies keep(level, point); None once the seeds or the
    budget of stack pops run out.

    Depth-first over the feasible branches, greedy on |1 - z|: the negated
    root (bit 1) is tried first, the principal root when the node's angle
    is pi.  Siblings share a radius, and bit 1 lands at |angle| = pi -
    |angle|/2, never below bit 0's |angle|/2 and equal only at pi, so the
    bit alone puts the child farther from 1 first.  Below a point where
    tail(level, point) holds, the search would pop the bit-1 child at each
    level; that thread is returned for the one pop of the point.
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
            if tail is not None and tail(level, p):
                return Thread(n0, seed, bits + (1,) * (depth - level))
            children = [
                (bit, q) for bit, q in feasible_branches(cache, level, p) if keep(level + 1, q)
            ]
            # bit 1 is pushed last so it pops first; at pi the roots tie
            if p.angle == PI:
                children.reverse()
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
        cache.sup(depth, 15).sq_hi < delta_sq
    ):
        return None
    base_levels = range(0, min(depth, max(9, depth * 2 // 3)))

    def keep(level: int, p: LevelPoint) -> bool:
        return compare_abs1m_sq(p.m, p.angle, delta_sq) >= 0

    tail = lambda level, p: tail_closes(cache.Z, level, p, delta_sq)
    return search(cache, search_seeds(cache, base_levels), depth, keep, node_budget, tail)


def verify_witness(cache: LevelCache, th: Thread, depth: int, delta: Fraction) -> bool:
    """Independent re-check of a witness from scratch, through `depth` or its certified bit-1 tail."""
    delta_sq = Fraction(delta) ** 2
    n = max(depth, th.base_level)
    prefix = th.bits[: n - th.base_level]
    # the level after the last 0 bit (n when the bits stop short of n)
    ones_from = th.base_level + 1 + bytes(prefix).rfind(0) if len(prefix) == n - th.base_level else n
    try:
        for level, p in walk(cache, th, n):
            if compare_abs1m_sq(p.m, p.angle, delta_sq) < 0:
                return False
            if ones_from <= level < n and tail_closes(cache.Z, level, p, delta_sq):
                return True
        return True
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
    pi/2, hence the divergence band extends to every level.  The witness,
    one verify_witness accepts, must live on the primitive's own tower,
    which one point of it decides: `on_line_level` at the level where the
    tower closes, or at the depth if that comes first.
    """
    # a bit-1 step lands at |angle| = pi - |angle|/2 >= pi/2
    if not (depth > th.base_level and th.bit_at(depth) == 1):
        p = evaluate(cache, th, depth)
        mag = -p.angle if p.angle.sign() < 0 else p.angle
        if (mag - PiLinear(0, Fraction(1, 2))).sign() < 0:
            return None
    for prim in Z.primitives:
        if not isinstance(prim, (VLine, ILattice)):
            continue
        closed_from = _closed_from(prim)
        # from level closed_from on, a tower point has both square roots on
        # the next level: past closed_from - 1 the tower holds the thread.
        # Squaring maps each level of the primitive into the one above, so
        # the thread's point at L on level L puts every earlier one there
        L = min(depth, max(th.base_level, (closed_from or 0) - 1))
        if on_line_level(prim, L, evaluate(cache, th, L)):
            return prim, closed_from
    return None


# ---------------------------------------------------------------------------
# the bit-1 tail
#
# Why tail_closes is sound.  Bit 1 maps a reduced angle t to |t'| = pi - |t|/2,
# so along q's bit-1 tail e = ||t| - 2pi/3|, the distance to the 2-cycle
# {2pi/3, -2pi/3} of squaring, halves at every step, and the log-moduli m/2^k
# lie between m = log_mod(q) and 0.  On |phi| in [pi/2, pi],
# |1 - r e^{i phi}|^2 = r^2 - 2r cos(phi) + 1 grows with |phi| and with r: its
# value at angle 2pi/3 - e/2 (>= pi/2 as e <= pi/6) and radius min(e^m, 1)
# bounds every later bit-1 point from below.  A line or lattice with q on its
# tower, antipode-closed from level + 1 on, keeps both square roots of every
# later tower point feasible.  So every bit-1 child along the tail is kept and
# feasible, and as `search` pops bit 1 first (no point of the tail sits at pi),
# the full depth-first search from q walks straight down that tail whatever
# the bit-0 children do: they need no bound.

_SIXTH_PI, _TWO_THIRDS_PI = (PiLinear(0, Fraction(k, 6)) for k in (1, 4))


def _closed_from(prim: Union[VLine, ILattice]) -> Optional[int]:
    """The level from which the primitive's level sets are antipode-closed; None when all are."""
    # a rational step b*pi/d has gcd(b, d) = 1, so b is the numerator of q1
    return None if isinstance(prim, VLine) or prim.step.a else _v2(prim.step.b)


def tail_closes(Z: SpectrumSet, level: int, q: LevelPoint, delta_sq: Fraction) -> bool:
    """Whether the bit-1 thread from q at `level` stays feasible in Z with |1 - z|^2 >=
    delta_sq at every later level (proof above)."""
    mag = -q.angle if q.angle.sign() < 0 else q.angle
    e = mag - _TWO_THIRDS_PI if mag >= _TWO_THIRDS_PI else _TWO_THIRDS_PI - mag
    # q on the tower of a line or lattice antipode-closed from level + 1 on
    if e > _SIXTH_PI or not any(
        isinstance(p, (VLine, ILattice)) and (_closed_from(p) or 0) <= level + 1 and on_line_level(p, level, q)
        for p in Z.primitives
    ):
        return False
    half_e = scale_pow2(e, -1)
    try:
        return all(compare_abs1m_sq(m, _TWO_THIRDS_PI - half_e, delta_sq) >= 0 for m in (q.m, (0, 1)))
    except ComputationLimit:
        return False


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


def convergence_rate(cache: LevelCache, th: Thread, n_max: int) -> RateReport:
    """Per-level |1 - point| table and the scaled constant max 2^n * value."""
    rows: list[RateRow] = []
    constant = Fraction(0)
    for n, p in walk(cache, th, n_max):
        sq = abs1m_sq_bounds(p.log_mod, p.angle, 30)
        lo, hi = interval_sqrt(sq, 30)
        rows.append(RateRow(n, lo, hi, p.angle, p.log_mod))
        constant = max(constant, hi * 2**n)
    return RateReport(constant, tuple(rows))
