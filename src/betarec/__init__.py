"""Beta-expansions, the beta-shift language, orbit recurrence exponents,
and the Cantor-type constructions behind their dimension formulas."""

from .numerics import BoundedReal
from .expansion import (
    BetaContext,
    Word,
    approximate_beta,
    beta_expand,
    detect_simple_parry,
    eps_star,
    evaluate_word,
    word_from_text,
    word_text,
)
from .symbolic import (
    Cylinder,
    FollowerAutomaton,
    count_admissible,
    cylinder,
    enumerate_admissible,
    full_window_check,
    is_admissible,
    is_full,
    lex_compare,
)
from .recurrence import (
    OrbitView,
    PrefixForm,
    ReturnProfile,
    classify_prefix,
    estimate_r,
    estimate_r_hat,
    extract_returns,
    recurrence_distance,
)
from .cantor import (
    CantorPlan,
    LevelSet,
    build_levels,
    build_plan,
    choose_N_M,
    m_set,
    measure,
    pad,
    plan_sequences,
    sample_point,
)
from .dimension import (
    DimReport,
    boxcount,
    dim_prescribed,
    dim_uniform,
    local_dimension_series,
    maximizer,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedReal",
    "BetaContext", "Word", "approximate_beta", "beta_expand",
    "detect_simple_parry", "eps_star", "evaluate_word", "word_from_text",
    "word_text",
    "Cylinder", "FollowerAutomaton", "count_admissible", "cylinder",
    "enumerate_admissible", "full_window_check", "is_admissible", "is_full",
    "lex_compare",
    "OrbitView", "PrefixForm", "ReturnProfile", "classify_prefix",
    "estimate_r", "estimate_r_hat", "extract_returns",
    "recurrence_distance",
    "CantorPlan", "LevelSet", "build_levels", "build_plan", "choose_N_M",
    "m_set", "measure", "pad", "plan_sequences", "sample_point",
    "DimReport", "boxcount", "dim_prescribed", "dim_uniform",
    "local_dimension_series", "maximizer",
    "__version__",
]
