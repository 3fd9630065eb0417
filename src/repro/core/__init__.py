"""ECO core: the paper's two-phase optimization algorithm.

Phase 1 (:mod:`repro.core.derive`) uses compiler models to derive a small
set of parameterized variants with constraints; phase 2
(:mod:`repro.core.search`) selects among them and tunes parameter values
with a guided empirical search on the target machine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "derive": ("derive_variants",),
    "eco": ("EcoOptimizer", "TunedKernel"),
    "explain": ("explain",),
    "search": ("GuidedSearch", "SearchConfig", "SearchResult"),
    "variants": (
        "Constraint", "CopyPlan", "LevelPlan", "PrefetchSite", "Variant", "instantiate",
        "prefetch_sites",
    ),
})
