"""matchlot: lottery decompositions for one-sided matching.

Builds probabilistic assignments with the classic mechanisms (serial
dictatorship and its randomisation, simultaneous eating), decomposes them
into lotteries over matchings that maximise the worst-case number of
assigned agents, and restricts those lotteries to Pareto-efficient
matchings via column generation.
"""

from .bvn import (
    NotRobustError,
    budish_extract,
    decompose_md,
    decompose_robust,
    lambda_max,
    md_upper_bound,
)
from .colgen import (
    ColumnPool,
    KTrace,
    MdsdResult,
    binary_search_z,
    generate_columns,
    initial_columns,
    price_pe_matching,
    solve_rmp,
)
from .core import (
    ConstraintStructure,
    Decomposition,
    EnumerationLimitError,
    Instance,
    InstanceValidationError,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_feasible,
    is_feasible_assignment,
    is_pareto_efficient,
    mu,
    recompose,
    serial_dictatorship,
    validate_instance,
    worst_case_cardinality,
)
from .datagen import GenParams, GenParamError, family_lb, family_ub, generate
from .lp import (
    DenseProgram,
    SolveResult,
    SolverError,
    solve_lp,
    solve_mip,
)
from .mechanisms import (
    RsdEstimate,
    probabilistic_serial,
    rsd_exact,
    rsd_sampled,
)
from .pe_program import build_matching_program, extreme_pe_cardinality
from .popularity import binary_search_margin, unpopularity_margin

__version__ = "0.1.0"

__all__ = [
    "ColumnPool",
    "ConstraintStructure",
    "Decomposition",
    "DenseProgram",
    "EnumerationLimitError",
    "GenParamError",
    "GenParams",
    "Instance",
    "InstanceValidationError",
    "KTrace",
    "Matching",
    "MatchlotError",
    "MdsdResult",
    "NotRobustError",
    "ProbabilisticAssignment",
    "RsdEstimate",
    "SolveResult",
    "SolverError",
    "binary_search_margin",
    "binary_search_z",
    "budish_extract",
    "build_matching_program",
    "decompose_md",
    "decompose_robust",
    "extreme_pe_cardinality",
    "family_lb",
    "family_ub",
    "generate",
    "generate_columns",
    "initial_columns",
    "is_feasible",
    "is_feasible_assignment",
    "is_pareto_efficient",
    "lambda_max",
    "md_upper_bound",
    "mu",
    "price_pe_matching",
    "probabilistic_serial",
    "recompose",
    "rsd_exact",
    "rsd_sampled",
    "serial_dictatorship",
    "solve_lp",
    "solve_mip",
    "solve_rmp",
    "unpopularity_margin",
    "validate_instance",
    "worst_case_cardinality",
]
