"""Continuity classification for dyadic semigroups built from spectrum sets.

Decide, for a symbolically described closed set Z in the plane, whether
the dyadic operator semigroup living on the tower of exponential images
cl(exp(Z / 2^n)) under squaring is uniformly continuous, strongly
continuous but not uniformly, or not strongly continuous, with
machine-checkable evidence computed in exact arithmetic over numbers
q0 + q1*pi.
"""

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
from .simulate import (
    DiagonalModel,
    DyadicTime,
    TestVector,
    apply_semigroup,
    decompose,
    joint_spectrum_residual,
    multipliers,
    norm_bound_check,
    quasi_uniform_cover,
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
    section_difference,
    vertical_section,
)
from .threads import Thread, convergence_rate, divergence_search, evaluate, feasible_branches
from .towers import Tower, inverse_limit, lim1_vanishes, middle_group_bounds

__version__ = "0.1.0"
