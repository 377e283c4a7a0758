"""Inverse limits and first derived limits of diagonal integer-map towers.

A tower is ... -> Z^r -> Z^r -> Z^r whose connecting maps are diagonal
and repeat one cycle forever.  `Tower(cycle)` holds that cycle: a
nonempty tuple of integer diagonals of one length r, the rank.  A
constant tower is a one-step cycle, and the zero tower is the rank-0
cycle ``((),)``, its only cycle.  lim and lim^1 read only the cycle,
componentwise:

* a component contributes Z to the inverse limit iff all but finitely
  many of its entries are +-1 (otherwise only the zero thread survives);
* the Mittag-Leffler condition (decreasing image chains stabilize) holds
  iff each component's entries are eventually +-1 or eventually annihilate
  through a zero; for towers of countable abelian groups Mittag-Leffler is
  equivalent to the vanishing of the first derived limit (standard
  theory, used here as an external fact).

The middle-group bookkeeping plugs lim and lim^1 into the short exact
sequence 0 -> lim^1 -> middle -> lim -> 0.
"""

from __future__ import annotations

from .records import record


class TowerError(ValueError):
    pass


@record
class Tower:
    cycle: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cycle:
            raise TowerError("a tower needs a nonempty cycle")
        if len({len(v) for v in self.cycle}) != 1:
            raise TowerError("cycle entries must share the rank")
        if not self.cycle[0] and len(self.cycle) > 1:
            raise TowerError("the zero tower is the one-step cycle ((),)")
        if not all(isinstance(d, int) for v in self.cycle for d in v):
            raise TowerError("diagonal entries must be integers")

    @property
    def rank(self) -> int:
        return len(self.cycle[0])

    def component_cycle(self, i: int) -> tuple[int, ...]:
        return tuple(step[i] for step in self.cycle)


@record
class LimitResult:
    rank: int
    surviving: tuple[int, ...]  # component indices contributing Z
    description: str


def inverse_limit(T: Tower) -> LimitResult:
    """Rank and basis components of lim of the tower."""
    if not T.rank:
        return LimitResult(0, (), "zero tower: lim = 0")
    surviving = tuple(i for i, c in enumerate(zip(*T.cycle)) if all(abs(d) == 1 for d in c))
    rank = len(surviving)
    desc = f"lim = Z^{rank}" if rank else "lim = 0"
    return LimitResult(rank, surviving, desc)


def lim1_vanishes(T: Tower) -> bool:
    """Mittag-Leffler for the tower (equivalently lim^1 = 0).

    Componentwise image chains: isomorphism entries keep the full group,
    a zero entry collapses everything after it to 0 (chains stabilize),
    and any |entry| >= 2 recurring forever gives a strictly decreasing
    chain d_1 d_2 ... d_k Z that never stabilizes.
    """
    return all(0 in c or all(abs(d) == 1 for d in c) for c in zip(*T.cycle))


@record
class MiddleGroup:
    determined: bool
    rank: int | None
    text: str


def middle_group_bounds(lim1_zero: bool, lim_rank: int) -> MiddleGroup:
    """What 0 -> lim^1 -> middle -> lim -> 0 says about the middle group."""
    if lim_rank < 0:
        raise TowerError("lim rank must be >= 0")
    if lim1_zero and lim_rank == 0:
        return MiddleGroup(True, 0, "middle group = 0")
    if lim1_zero:
        return MiddleGroup(True, lim_rank, f"middle group = Z^{lim_rank}")
    return MiddleGroup(False, None, "undetermined: lim^1 does not vanish")
