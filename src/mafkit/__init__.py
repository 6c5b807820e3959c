"""Maximum agreement forests of multiple rooted or unrooted general trees."""

from .approx import (
    ApproxResult,
    MetaStepRecord,
    approx_rmaf,
    approx_umaf,
    check_metastep_ratio,
    coarsen,
    essential_subset,
)
from .datagen import (
    GenSpec,
    GenerationError,
    apply_random_spr,
    contract_random_edges,
    generate_instance,
    random_binary_tree,
)
from .forest import (
    RHO,
    AgreementForest,
    EdgeSplit,
    Forest,
    ForestError,
    Instance,
    Label,
    LabelTable,
    LabelUniverseError,
    MafError,
    certify,
    is_subforest,
    subforest_witness,
)
from .fpt import (
    MinKResult,
    NoSolutionError,
    SearchStats,
    find_min_k,
    solve_rmaf,
    solve_umaf,
)
from .newick import NewickError, NewickWarning, format_instance, parse_instance, serialize
from .oracle import OracleResult, OracleSizeError, brute_force_maf
from .reduction import reduce_pair

__version__ = "0.1.0"

__all__ = [
    "AgreementForest",
    "ApproxResult",
    "EdgeSplit",
    "Forest",
    "ForestError",
    "GenSpec",
    "GenerationError",
    "Instance",
    "Label",
    "LabelTable",
    "LabelUniverseError",
    "MafError",
    "MetaStepRecord",
    "MinKResult",
    "NewickError",
    "NewickWarning",
    "NoSolutionError",
    "OracleResult",
    "OracleSizeError",
    "RHO",
    "SearchStats",
    "apply_random_spr",
    "approx_rmaf",
    "approx_umaf",
    "brute_force_maf",
    "certify",
    "check_metastep_ratio",
    "coarsen",
    "contract_random_edges",
    "essential_subset",
    "find_min_k",
    "format_instance",
    "generate_instance",
    "is_subforest",
    "parse_instance",
    "random_binary_tree",
    "reduce_pair",
    "serialize",
    "solve_rmaf",
    "solve_umaf",
    "subforest_witness",
]
