"""Comparison baselines and alternative searches.

* :class:`NativeCompiler` — model-only platform-compiler stand-in;
* :class:`MiniAtlas` — ATLAS-style orthogonal empirical search (mm);
* :class:`VendorBlas` — frozen hand-tuned DGEMM per machine;
* :class:`ModelDriven` — ECO's phase 1 with model-chosen parameters and
  zero experiments (the Yotov et al. comparison);
* :class:`RandomSearch`, :class:`AnnealingSearch` — unguided / lightly
  guided searches used by the ablation benches.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "annealing": ("AnnealingResult", "AnnealingSearch"),
    "atlas": ("MiniAtlas",),
    "blas": ("VendorBlas",),
    "modeldriven": ("ModelDriven",),
    "native": ("NativeCompiler",),
    "randomsearch": ("RandomSearch", "RandomSearchResult"),
})
