"""Continuity classification for dyadic semigroups built from spectrum sets.

Decide, for a symbolically described closed set Z in the plane, whether
the dyadic operator semigroup living on the tower of exponential images
cl(exp(Z / 2^n)) under squaring is uniformly continuous, strongly
continuous but not uniformly, or not strongly continuous, with
machine-checkable evidence computed in exact arithmetic over numbers
q0 + q1*pi.

The package attribute `dyadicspec.classify` is the function, not the
submodule of the same name, and `import dyadicspec.classify as m` binds
the function too; reach the module through
`sys.modules["dyadicspec.classify"]`, for instance to patch it in a test.
"""

import importlib

from .classify import ClassificationReport, ClassifyParams, Verdict, classify
from .exactnum import PiLinear, compare, parse, reduce_mod_2pi, render, scale_pow2, to_float
from .levels import (
    LevelCache,
    LevelPoint,
    LevelSet,
    antipodal_set,
    circle_section,
    level_set,
    membership,
    sup_abs_one_minus,
)
from .spectrum import (
    ILattice,
    Point,
    PrimeFamily,
    Rect,
    SpectrumSet,
    VLine,
    VSegment,
    antipode_level_union,
    image_closedness,
    real_part_range,
    section_antipode_condition,
    section_antipode_levels,
    vertical_section,
)
from .threads import Thread, convergence_rate, divergence_search, evaluate, feasible_branches, search, walk

__version__ = "0.1.0"

# simulate and towers load on first use (PEP 562): importing the package,
# or the CLI for a command that needs neither, does not pay for them
_LAZY = {
    "simulate": (
        "DiagonalModel",
        "DyadicTime",
        "TestVector",
        "apply_semigroup",
        "decompose",
        "joint_spectrum_residual",
        "multipliers",
        "norm_bound_check",
        "quasi_uniform_cover",
    ),
    "towers": ("Tower", "inverse_limit", "lim1_vanishes", "middle_group_bounds"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
