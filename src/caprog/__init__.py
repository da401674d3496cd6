"""Behavioural programmability measurements on cellular automata.

The pipeline: enumerate input families whose consecutive members differ
minimally, evolve a system on each member over increasing runtimes,
compress each evolution to estimate its complexity, and fit how fast the
normalized complexity differences grow with runtime. The fitted slope (the
transition coefficient) separates systems that react to their inputs from
inert ones, and supports equality and closeness comparisons between
systems measured on a shared parameter grid.
"""
__version__ = "0.1.0"  # first, so that any submodule can import it

from .classify import (
    EPSILON_FLOOR,
    INERT_ECA,
    INERT_LIFE,
    IncomparableError,
    SweepReport,
    behaviourally_equivalent,
    c_equivalent,
    calibrate_epsilon,
    computes,
    is_zero_computer,
    kmeans_clusters,
    r30_grouping,
    sweep_eca,
)
from .coefficient import (
    CoefficientResult,
    DegenerateFitError,
    FitResult,
    RunParams,
    VariabilityCurve,
    fit_line,
    measure,
    sample_times,
)
from .complexity import (
    COMPRESSOR_ID,
    compressed_size,
)
from .engine import (
    CYCLIC,
    FIXED,
    GAME_OF_LIFE,
    Configuration,
    LifeRule,
    RuleTable,
    default_width,
    evolve,
    rule_from_number,
)
from .enumeration import (
    InputFamily,
    gray_code,
    gray_initials,
    gray_patches,
    random_initials,
)
