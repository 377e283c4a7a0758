"""The benchmark's workloads: for a seed, the items of one pass.

An item is one CLI call, ``dyadicspec <command> --config -``, fed the
item's config text on stdin.  Classify items also pass ``--json``.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import generator

COMMANDS = ("classify", "levels", "antipodes", "mt", "simulate")

BUILTIN_CONFIGS = {
    "roots2k": "spectrum ilattice re=0 base=0 step=2*pi\n",
    "solenoid": "spectrum vline re=0\n",
    "rectangle": "spectrum rect re=[-1,0] im=[-1*pi,1*pi]\n",
    "primefamily": "spectrum primefamily nseq=2j J=8\n",
}


@dataclass(frozen=True)
class Item:
    id: str
    command: str
    config: str

    @property
    def argv(self) -> list[str]:
        extra = ["--json"] if self.command == "classify" else []
        return [self.command, "--config", "-", *extra]

    @property
    def key(self) -> str:
        """Identifies the call by what the program sees, not by its position."""
        return hashlib.sha256(f"{self.command}\0{self.config}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    # a run makes round(seconds / nominal_pass_s) whole passes, at least one,
    # so its sample count depends on neither the machine nor the code; the
    # value is near one pass's time at the seed commit on 2 vCPUs
    nominal_pass_s: float
    items: Callable[[int], list[Item]]  # seed -> the items of one pass

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))


def builtin_items(seed: int) -> list[Item]:
    # the built-in examples take no input, so the seed changes nothing
    return [
        Item(f"{name}/{cmd}", cmd, text)
        for name, text in BUILTIN_CONFIGS.items()
        for cmd in COMMANDS
    ]


def sections_items(seed: int) -> list[Item]:
    items = [
        Item(f"primefamily-{nseq}-J{J}", "classify", f"spectrum primefamily nseq={nseq} J={J}\n")
        for J, nseq in zip((10, 12, 16, 20, 24, 28, 32, 36, 40), ("2j", "3j+1") * 5)
    ]
    rng = random.Random(f"sections-{seed}")
    for count in (4, 6):
        items.append(Item(f"points-P{count}", "classify", generator.section_points(rng, count)))
    return items


# cos(q*pi) for these q is not rational (Niven), so the enclosures do work
_FAR_ANGLES = (Fraction(1, 5), Fraction(2, 7), Fraction(3, 8), Fraction(4, 9), Fraction(5, 11))


def enclosures_items(seed: int) -> list[Item]:
    rng = random.Random(f"enclosures-{seed}")
    items = []
    for R0 in (100, 200, 300, 400):
        R = R0 + rng.randint(0, R0 // 50)
        items.append(Item(f"rect-R{R0}", "classify", f"spectrum rect re=[-{R},0] im=[-1*pi,1*pi]\n"))
    for re0 in (150, 300):
        re_ = re0 + rng.randint(0, re0 // 50)
        q = rng.choice(_FAR_ANGLES)
        items.append(Item(f"point-re{re0}", "classify", f"spectrum point re=-{re_} im={q}*pi\n"))
    for depth in (60, 90):
        items.append(Item(f"vline-depth{depth}", "classify", f"spectrum vline re=0\nsearch_depth {depth}\n"))
    return items


# The spectra come from one fixed draw of the grammar: a random spectrum
# costs anywhere from a twentieth of a second to seconds, so fresh draws
# for every seed would make every seed's pass cost a different amount
# (22% quartile spread of run_s over five seeds).  The run's seed instead
# mirrors each spectrum in the real axis (im -> -im) or not, reorders its
# primitives, and reorders the items.  Verdicts are invariant under these
# changes and the work nearly so, but the texts differ from seed to seed.
CORPUS_POOL_SEED = 0
CORPUS_SIZE = 75

# Shallower than the defaults, so a pass holds many spectra, and so
# some end Inconclusive: a change that gives up earlier shows there.
CORPUS_PARAMS = "n_max 6\nK 2\nsearch_depth 12\n"


def corpus_items(seed: int) -> list[Item]:
    pool = random.Random(CORPUS_POOL_SEED)
    rng = random.Random(f"corpus-{seed}")
    texts = []
    for _ in range(CORPUS_SIZE):
        lines = generator.random_spectrum(pool).splitlines(keepends=True)
        if rng.random() < 0.5:
            lines = [generator.mirror(line) for line in lines]
        rng.shuffle(lines)
        texts.append("".join(lines) + CORPUS_PARAMS)
    rng.shuffle(texts)
    return [Item(f"spectrum-{k}", "classify", text) for k, text in enumerate(texts)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("builtin", 10.0, builtin_items),
        Workload("sections", 10.0, sections_items),
        Workload("enclosures", 7.0, enclosures_items),
        Workload("corpus", 20.0, corpus_items),
    )
}


_RE_NUM = re.compile(r"re=\[?(-?[\d/]+)(?:,(-?[\d/]+))?\]?")
_J = re.compile(r"\bJ=(\d+)")
_STEP = re.compile(r"step=([^\s]+)")
_DEPTH = re.compile(r"^search_depth (\d+)$", re.M)


def knobs(config: str) -> dict:
    """The inputs that scaling curves are drawn against, read from the config."""
    res = [abs(Fraction(x)) for m in _RE_NUM.finditer(config) for x in m.groups() if x]
    steps = [m.group(1) for m in _STEP.finditer(config)]
    step_dens = [Fraction(s.split("*")[0].split("+")[-1]).denominator for s in steps if "*pi" in s]
    depth = _DEPTH.search(config)
    return {
        "primitives": config.count("spectrum "),
        "J": max((int(j) for j in _J.findall(config)), default=None),
        "abs_re": str(max(res)) if res else None,
        "search_depth": int(depth.group(1)) if depth else None,
        "lattice_step_den": max(step_dens, default=None),
    }
