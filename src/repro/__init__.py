"""repro — ECO: Combining Models and Guided Empirical Search to Optimize
for Multiple Levels of the Memory Hierarchy (CGO 2005 reproduction).

Top-level convenience surface::

    from repro import EcoOptimizer, get_kernel, get_machine

    tuned = EcoOptimizer(get_kernel("mm"), get_machine("sgi")).optimize({"N": 48})
    print(tuned.describe())
    print(tuned.measure({"N": 64}).mflops)

Subpackages:

* :mod:`repro.ir` — loop-nest IR (expressions, loops, kernels, printer);
* :mod:`repro.frontend` — textual kernel DSL;
* :mod:`repro.analysis` — dependence / reuse / footprint / profitability;
* :mod:`repro.transforms` — permute, tile, unroll-and-jam, scalar
  replacement, copy, prefetch;
* :mod:`repro.codegen` — C emitter, interpreter, memory layout;
* :mod:`repro.sim` — the simulated machine (caches, TLB, timing);
* :mod:`repro.core` — the paper's two-phase optimizer;
* :mod:`repro.baselines` — Native / mini-ATLAS / vendor-BLAS comparators;
* :mod:`repro.kernels` — the paper's kernels and extras;
* :mod:`repro.experiments` — regeneration of every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "baselines": ("NativeCompiler", "MiniAtlas", "VendorBlas"),
    "core": ("EcoOptimizer", "GuidedSearch", "SearchConfig", "TunedKernel", "derive_variants"),
    "kernels": ("get_kernel",),
    "machines": ("MACHINES", "MachineSpec", "get_machine"),
    "sim": ("Counters", "execute"),
})

__version__ = "1.0.0"
__all__.append("__version__")
