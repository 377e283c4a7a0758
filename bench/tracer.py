"""Spans around calls into the layers of ``dyadicspec``, recorded from outside.

The tracer replaces each listed function with a wrapper that records one
span per call: the function, the span that was open when it was called,
start and end times, and an optional number taken from the call (its
argument or its result).  Spans live in flat arrays in memory until the
traced run ends.  ``uninstall`` puts every original function back.

A layer is a module of the package.  The self time of a span is its
duration minus the durations of the spans it directly caused, so time in
code that is not wrapped (``Fraction`` arithmetic, helpers) counts towards
the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict


def _points(args, result):
    return len(result)


def _abs_first(args, result):
    return abs(float(args[0]))


def _first(args, result):
    return float(args[0])


# (module, qualified name, how to read a number from one call, or None)
TARGETS = (
    ("exactnum", "pi_bounds", _first),
    ("exactnum", "reduce_mod_2pi", None),
    ("exactnum", "PiLinear.sign", None),
    ("realbounds", "exp_bounds", _abs_first),
    ("realbounds", "cos_bounds", None),
    ("realbounds", "abs1m_sq_bounds", None),
    ("realbounds", "compare_abs1m_sq", None),
    ("spectrum", "vertical_section", None),
    ("spectrum", "section_antipode_levels", None),
    ("spectrum", "antipode_level_union", None),
    ("spectrum", "image_closedness", None),
    ("levels", "CircleLattice.points", _points),
    ("levels", "make_lattice", None),
    ("levels", "level_set", None),
    ("levels", "eventual_image", None),
    ("levels", "power_levelset", None),
    ("levels", "antipodal_set", None),
    ("levels", "component_intersection", None),
    ("levels", "sup_abs_one_minus", None),
    ("levels", "LevelCache.level", None),
    ("levels", "LevelCache.eventual", None),
    ("threads", "divergence_search", None),
    ("threads", "feasible_branches", None),
    ("threads", "verify_witness", None),
    ("threads", "persistence_certificate", None),
    ("classify", "classify", None),
    ("classify", "check_not_strong", None),
    ("classify", "check_uniform", None),
    ("classify", "check_not_uniform", None),
    ("classify", "pointwise_certificate", None),
    ("simulate", "quasi_uniform_cover", None),
    ("simulate", "norm_bound_check", None),
    ("simulate", "joint_spectrum_residual", None),
    ("cli", "parse_config", None),
    ("cli", "run", None),
    ("cli", "report_to_dict", None),
    ("cli", "render_report", None),
)

LAYERS = ("exactnum", "realbounds", "spectrum", "levels", "threads", "classify", "simulate", "cli")

PACKAGE = "dyadicspec"


class Tracer:
    """Wraps the functions in ``TARGETS`` while installed; keeps their spans."""

    def __init__(self):
        self.targets = TARGETS
        self.names = tuple(f"{mod}.{qual}" for mod, qual, _ in self.targets)
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for fid, (mod, qual, note) in enumerate(self.targets):
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                # a method: patch it once, on its class
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(fid, original, note))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(fid, original, note)
            # every module attribute bound to this function, aliases included
            for name, other in list(sys.modules.items()):
                if other is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fid, fn, note):
        fids, parents, starts, ends, values = (
            self.fids, self.parents, self.starts, self.ends, self.values,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            values.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                values[i] = note(args, result)
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def _children(self) -> tuple[list[float], dict[int, set]]:
        """Time covered by each span's direct children, and their functions."""
        child_time = [0.0] * len(self.fids)
        child_fids: dict[int, set] = defaultdict(set)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
                child_fids[p].add(self.fids[i])
        return child_time, child_fids

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, self time, and the sum and maximum
        of the number read from its calls."""
        child_time, _ = self._children()
        out = {name: {"calls": 0, "self_s": 0.0, "value_sum": 0.0, "value_max": 0.0}
               for name in self.names}
        for i, fid in enumerate(self.fids):
            row = out[self.names[fid]]
            row["calls"] += 1
            row["self_s"] += (self.ends[i] - self.starts[i]) - child_time[i]
            row["value_sum"] += self.values[i]
            row["value_max"] = max(row["value_max"], self.values[i])
        return out

    def calls_without_child(self, parent: str, child: str) -> int:
        """Calls of ``parent`` during which ``child`` was never called directly."""
        pf, cf = self.names.index(parent), self.names.index(child)
        _, child_fids = self._children()
        return sum(
            1 for i, fid in enumerate(self.fids)
            if fid == pf and cf not in child_fids.get(i, ())
        )

    def calls_under(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly from a span of ``parent``."""
        pf, cf = self.names.index(parent), self.names.index(child)
        return sum(
            1 for i, fid in enumerate(self.fids)
            if fid == cf and self.parents[i] >= 0 and self.fids[self.parents[i]] == pf
        )

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, one per call."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tfunction\tstart_s\tend_s\tvalue\n")
            t0 = self.starts[0] if len(self.starts) else 0.0
            for i in range(len(self.fids)):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.names[self.fids[i]]}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\t{self.values[i]:g}\n"
                )
