"""Compiler analyses: dependence, reuse, footprint, profitability."""

from repro.analysis.dependence import Dependence, compute_dependences, recipe_refusal
from repro.analysis.footprint import (
    footprint_elems,
    group_footprint_elems,
    ref_extents,
    ref_footprint_elems,
)
from repro.analysis.profitability import (
    access_weights,
    most_profitable_loops,
    most_profitable_refs,
)
from repro.analysis.learned import (
    DEFAULT_EXPLORE,
    DEFAULT_RANKER_MARGIN,
    DEFAULT_TOP_K,
    LearnedRanker,
    TrainingError,
    evaluate_ranker,
    load_ranker,
    save_ranker,
    train_ranker,
)
from repro.analysis.reuse import GroupReuse, RefReuse, ReuseSummary, analyze_reuse
from repro.analysis.surrogate import DEFAULT_MARGIN, SkipVerdict, Surrogate

__all__ = [
    "Surrogate",
    "SkipVerdict",
    "DEFAULT_MARGIN",
    "DEFAULT_EXPLORE",
    "DEFAULT_RANKER_MARGIN",
    "DEFAULT_TOP_K",
    "LearnedRanker",
    "TrainingError",
    "evaluate_ranker",
    "load_ranker",
    "save_ranker",
    "train_ranker",
    "Dependence",
    "compute_dependences",
    "recipe_refusal",
    "RefReuse",
    "GroupReuse",
    "ReuseSummary",
    "analyze_reuse",
    "ref_extents",
    "ref_footprint_elems",
    "group_footprint_elems",
    "footprint_elems",
    "access_weights",
    "most_profitable_loops",
    "most_profitable_refs",
]
