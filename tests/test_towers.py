import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from dyadicspec.classify import ClassifyParams
from dyadicspec.cli import Config, ConfigError, main, parse_config, render_config
from dyadicspec.spectrum import SpectrumSet
from dyadicspec.towers import (
    Tower,
    TowerError,
    inverse_limit,
    lim1_vanishes,
    middle_group_bounds,
)


def test_examples():
    assert inverse_limit(Tower(((2,),))).rank == 0
    assert inverse_limit(Tower(((1,),))).rank == 1
    r = inverse_limit(Tower(((2, 1),)))
    assert r.rank == 1 and r.surviving == (1,)

    assert lim1_vanishes(Tower(((),)))
    assert not lim1_vanishes(Tower(((2,),)))
    assert lim1_vanishes(Tower(((-1,),)))

    assert middle_group_bounds(True, 0).rank == 0
    assert middle_group_bounds(True, 1).rank == 1
    assert not middle_group_bounds(False, 0).determined


def test_validation():
    with pytest.raises(TowerError):
        Tower(((1, 2), (1,)))


def test_periodic_cases():
    assert inverse_limit(Tower(((2,), (1,)))).rank == 0
    assert not lim1_vanishes(Tower(((2,), (1,))))
    assert inverse_limit(Tower(((-1,), (1,)))).rank == 1
    assert lim1_vanishes(Tower(((-1,), (1,))))
    assert lim1_vanishes(Tower(((0,), (5,))))
    assert inverse_limit(Tower(((0,), (5,)))).rank == 0


# ---------------------------------------------------------------------------
# brute-force oracle on truncated towers


BOUND = 10**6
DEPTH = 75  # deep enough that any recurring |entry| >= 2 overflows the bound


def brute_component_survives(cycle: tuple[int, ...]) -> bool:
    """Solve x_n = d_{n+1} x_{n+1} over integers bounded by BOUND for DEPTH
    levels: a nonzero level-0 value exists iff the entry product stays
    within the bound and nonzero."""
    prod = 1
    for i in range(DEPTH):
        prod *= cycle[i % len(cycle)]
        if prod == 0 or abs(prod) > BOUND:
            return False
    return True


def brute_mittag_leffler(cycle: tuple[int, ...]) -> bool:
    """Image chains |d_1 ... d_k| stabilize within the truncation."""
    sizes = []
    prod = 1
    for i in range(DEPTH):
        prod *= cycle[i % len(cycle)]
        sizes.append(min(abs(prod), BOUND))
    tail = sizes[len(cycle) * 2 :]
    return all(a == b for a, b in zip(tail, tail[1:]))


def test_oracle_agreement_on_random_towers():
    rng = random.Random(404)
    for _ in range(50):
        rank = rng.randint(1, 4)
        if rng.random() < 0.5:
            T = Tower((tuple(rng.randint(-3, 3) for _ in range(rank)),))
        else:
            period = rng.randint(1, 3)
            cycle = tuple(
                tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(period)
            )
            T = Tower(cycle)
        lim = inverse_limit(T)
        got_surviving = set(lim.surviving)
        want_surviving = {
            i for i in range(rank) if brute_component_survives(T.component_cycle(i))
        }
        assert got_surviving == want_surviving, T

        want_ml = all(brute_mittag_leffler(T.component_cycle(i)) for i in range(rank))
        assert lim1_vanishes(T) == want_ml, T


def test_lim1_vanishes_on_isomorphism_towers():
    rng = random.Random(8)
    for _ in range(20):
        rank = rng.randint(1, 5)
        entries = tuple(rng.choice([-1, 1]) for _ in range(rank))
        T = Tower((entries,))
        assert inverse_limit(T).rank == rank
        assert lim1_vanishes(T)


def test_a_tower_is_its_cycle():
    assert Tower(((),)).rank == 0 and Tower(((2, 1), (1, 3))).rank == 2
    assert Tower(((2, 1), (1, 3))).component_cycle(1) == (1, 3)
    with pytest.raises(TowerError):
        Tower(())
    with pytest.raises(TowerError):
        Tower(((1, 2.0),))


def test_every_tower_that_builds_renders_back_to_itself():
    # the zero tower is one step: a rank-0 cycle of two would print as
    # `tower zero` and parse back to the unequal one-step cycle
    with pytest.raises(TowerError):
        Tower(((), ()))
    built = 0
    for rank in range(3):
        steps = list(itertools.product(range(-1, 3), repeat=rank))
        for length in range(1, 4):
            for cycle in itertools.product(steps, repeat=length):
                try:
                    cfg = Config(SpectrumSet(()), ClassifyParams(), tower=Tower(cycle))
                except TowerError:
                    continue
                assert parse_config(render_config(cfg)) == cfg, cycle
                built += 1
    assert built == 1 + (4 + 16 + 64) + (16 + 256 + 4096)


# ---------------------------------------------------------------------------
# the `towers` subcommand over a seeded grid of `tower` values, against a
# golden of its stdout, stderr and exit code

GRID_GOLDEN = Path(__file__).parent / "golden" / "towers_grid.jsonl"

_FIXED_VALUES = (
    "zero", "zero 2,1", "", "spiral", "spiral 1", "Zero", "constant", "constant x",
    "constant 2,,1", "constant 1.5", "constant 1|2", "constant 2 1", "periodic",
    "periodic |", "periodic 1,2|3", "periodic 1,2|x", "periodic 1;2", "periodic 1||2",
)


def tower_values(seed: int = 4141, count: int = 408) -> list[str]:
    """Distinct `tower` values: the fixed ones above, then constant and
    periodic towers of rank 0..4 with cycles of 1..3 steps and entries in
    -3..3, one in ten with a step of another rank."""
    rng = random.Random(seed)
    out = list(_FIXED_VALUES)
    while len(out) < count:
        kind = rng.choice(("constant", "periodic"))
        rank = rng.randint(0, 4)
        steps = 1 if kind == "constant" else rng.randint(1, 3)
        cycle = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(steps)]
        if rank and rng.random() < 0.1:
            cycle[-1].pop()  # a step of another rank
        sep = rng.choice((",", ",", ",", ", "))
        value = f"{kind} " + "|".join(sep.join(map(str, s)) for s in cycle)
        if value not in out:
            out.append(value)
    return out


def test_towers_output_matches_the_grid_golden(monkeypatch, capsys):
    golden = [json.loads(line) for line in GRID_GOLDEN.read_text().splitlines()]
    assert [g["value"] for g in golden] == tower_values()
    for g in golden:
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"tower {g['value']}\n"))
        code = main(["towers"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (g["exit"], g["stdout"], g["stderr"]), g["value"]


def test_tower_lines_render_back_to_their_config():
    parsed = 0
    for value in tower_values():
        try:
            cfg = parse_config(f"tower {value}\n")
        except ConfigError:
            continue
        assert parse_config(render_config(cfg)) == cfg, value
        parsed += 1
    assert parsed > 300
