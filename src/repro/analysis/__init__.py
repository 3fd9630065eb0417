"""Compiler analyses: dependence, reuse, footprint, profitability."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "dependence": ("Dependence", "compute_dependences", "recipe_refusal"),
    "footprint": (
        "footprint_elems", "group_footprint_elems", "ref_extents", "ref_footprint_elems",
    ),
    "learned": (
        "DEFAULT_EXPLORE", "DEFAULT_RANKER_MARGIN", "DEFAULT_TOP_K", "LearnedRanker",
        "TrainingError", "evaluate_ranker", "load_ranker", "save_ranker", "train_ranker",
    ),
    "profitability": ("access_weights", "most_profitable_loops", "most_profitable_refs"),
    "reuse": ("GroupReuse", "RefReuse", "ReuseSummary", "analyze_reuse"),
    "surrogate": ("DEFAULT_MARGIN", "SkipVerdict", "Surrogate"),
})
