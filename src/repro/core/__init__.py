"""ECO core: the paper's two-phase optimization algorithm.

Phase 1 (:mod:`repro.core.derive`) uses compiler models to derive a small
set of parameterized variants with constraints; phase 2
(:mod:`repro.core.search`) selects among them and tunes parameter values
with a guided empirical search on the target machine.
"""

from repro.core.derive import derive_variants
from repro.core.eco import EcoOptimizer, TunedKernel
from repro.core.explain import explain
from repro.core.search import GuidedSearch, SearchConfig, SearchResult
from repro.core.variants import (
    Constraint,
    CopyPlan,
    LevelPlan,
    PrefetchSite,
    Variant,
    instantiate,
    prefetch_sites,
)

__all__ = [
    "derive_variants",
    "EcoOptimizer",
    "TunedKernel",
    "explain",
    "GuidedSearch",
    "SearchConfig",
    "SearchResult",
    "Constraint",
    "CopyPlan",
    "LevelPlan",
    "PrefetchSite",
    "Variant",
    "instantiate",
    "prefetch_sites",
]
