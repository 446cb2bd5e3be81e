"""Numerics for Riesz transforms and capacities of corner Cantor measures.

The package builds self-similar corner Cantor sets with prescribed
contraction ratios, atomizes their natural probability measure, evaluates
vector Riesz kernels against it (directly or through a hierarchical
tree code), decomposes fields into generation-level martingale jumps, runs
the stopping-scale classification of density sequences with a mechanically
checked inequality report, and estimates Wolff potentials and capacities.
"""

from ._version import __version__
from .config import ExperimentConfig, LambdaSpec, TreeSettings
from .errors import (
    BudgetError,
    ConfigError,
    DepthError,
    ParameterError,
    SingularityError,
)
from .geometry import (
    CantorParams,
    DensityProfile,
    build_profile,
    containing_cube,
    cube_position,
)
from .martingale import CellFunction, DecompositionReport, decompose, project
from .quadrature import DEFAULT_ATOM_BUDGET, AtomSet, atomize, ball_mass
from .riesz import (
    KernelSpec,
    VecField,
    eval_brute,
    l2_norm_sq,
    pairwise_sum,
)
from .rng import SplitMix64, case_stream
from .stopping import (
    KIND_DD,
    KIND_ID,
    KIND_TERMINAL,
    Classification,
    IntervalRecord,
    JIntervalRecord,
    LemmaCheck,
    LemmaReport,
    StopConfig,
    StopSet,
    classify,
    compute_stops,
    sigma,
    verify_sequence_lemmas,
    verify_transform_lemmas,
)
from .treecode import TreeCodeConfig, eval_treecode
from .wolff import (
    GammaPlusEstimate,
    HaloGridSpec,
    WolffParams,
    capacity_wolff,
    capacity_wolff_from0,
    gamma_plus_lower_bound,
    wolff_discrete_s,
    wolff_potential,
    wolff_potential_s,
)

__all__ = [
    "__version__",
    "AtomSet",
    "BudgetError",
    "CantorParams",
    "CellFunction",
    "Classification",
    "ConfigError",
    "DecompositionReport",
    "DEFAULT_ATOM_BUDGET",
    "DensityProfile",
    "DepthError",
    "ExperimentConfig",
    "GammaPlusEstimate",
    "HaloGridSpec",
    "IntervalRecord",
    "JIntervalRecord",
    "KIND_DD",
    "KIND_ID",
    "KIND_TERMINAL",
    "KernelSpec",
    "LambdaSpec",
    "LemmaCheck",
    "LemmaReport",
    "ParameterError",
    "SingularityError",
    "SplitMix64",
    "StopConfig",
    "StopSet",
    "TreeCodeConfig",
    "TreeSettings",
    "VecField",
    "WolffParams",
    "atomize",
    "ball_mass",
    "build_profile",
    "capacity_wolff",
    "capacity_wolff_from0",
    "case_stream",
    "classify",
    "compute_stops",
    "containing_cube",
    "cube_position",
    "decompose",
    "eval_brute",
    "eval_treecode",
    "gamma_plus_lower_bound",
    "l2_norm_sq",
    "pairwise_sum",
    "project",
    "sigma",
    "verify_sequence_lemmas",
    "verify_transform_lemmas",
    "wolff_discrete_s",
    "wolff_potential",
    "wolff_potential_s",
]
