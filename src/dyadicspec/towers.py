"""Inverse limits and first derived limits of diagonal integer-map towers.

A tower is ... -> Z^r -> Z^r -> Z^r with diagonal connecting maps
(constant or periodically repeating integer entries).  Componentwise:

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

from typing import Union

from .records import record


class TowerError(ValueError):
    pass


@record
class ConstantMaps:
    entries: tuple[int, ...]


@record
class PeriodicMaps:
    cycle: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cycle:
            raise TowerError("periodic tower needs a nonempty cycle")
        ranks = {len(v) for v in self.cycle}
        if len(ranks) != 1:
            raise TowerError("cycle entries must share the rank")


@record
class ZeroTower:
    pass


Maps = Union[ConstantMaps, PeriodicMaps, ZeroTower]


@record
class Tower:
    rank: int
    maps: Maps

    def __post_init__(self):
        if self.rank < 0:
            raise TowerError("rank must be >= 0")
        if isinstance(self.maps, ZeroTower):
            if self.rank != 0:
                raise TowerError("zero tower has rank 0")
            return
        entries = (
            self.maps.entries
            if isinstance(self.maps, ConstantMaps)
            else self.maps.cycle[0]
        )
        if len(entries) != self.rank:
            raise TowerError("diagonal length must equal the rank")
        for src in (
            [self.maps.entries]
            if isinstance(self.maps, ConstantMaps)
            else list(self.maps.cycle)
        ):
            for d in src:
                if not isinstance(d, int):
                    raise TowerError("diagonal entries must be integers")

    def component_cycle(self, i: int) -> tuple[int, ...]:
        if isinstance(self.maps, ZeroTower):
            raise TowerError("zero tower has no components")
        if isinstance(self.maps, ConstantMaps):
            return (self.maps.entries[i],)
        return tuple(step[i] for step in self.maps.cycle)


@record
class LimitResult:
    rank: int
    surviving: tuple[int, ...]  # component indices contributing Z
    description: str


def inverse_limit(T: Tower) -> LimitResult:
    """Rank and basis components of lim of the tower."""
    if isinstance(T.maps, ZeroTower):
        return LimitResult(0, (), "zero tower: lim = 0")
    surviving = []
    for i in range(T.rank):
        cycle = T.component_cycle(i)
        if all(abs(d) == 1 for d in cycle):
            surviving.append(i)
    rank = len(surviving)
    desc = f"lim = Z^{rank}" if rank else "lim = 0"
    return LimitResult(rank, tuple(surviving), desc)


def lim1_vanishes(T: Tower) -> bool:
    """Mittag-Leffler for the tower (equivalently lim^1 = 0).

    Componentwise image chains: isomorphism entries keep the full group,
    a zero entry collapses everything after it to 0 (chains stabilize),
    and any |entry| >= 2 recurring forever gives a strictly decreasing
    chain d_1 d_2 ... d_k Z that never stabilizes.
    """
    if isinstance(T.maps, ZeroTower):
        return True
    for i in range(T.rank):
        cycle = T.component_cycle(i)
        if any(d == 0 for d in cycle):
            continue  # images stabilize at 0
        if all(abs(d) == 1 for d in cycle):
            continue  # isomorphisms
        return False
    return True


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
