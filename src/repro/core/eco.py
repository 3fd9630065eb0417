"""ECO front door: the paper's complete two-phase optimizer.

``EcoOptimizer`` ties the phases together:

* phase 1 (:func:`~repro.core.derive.derive_variants`) derives the
  parameterized variants and their constraints from compiler models;
* phase 2 (:class:`~repro.core.search.GuidedSearch`) tunes parameter
  values and prefetching empirically on the target machine.

Like the paper's prototype (which selected one parameter set "for all
array sizes"), tuning runs once at a representative problem size and the
resulting version is then *measured* across whole size sweeps with
:meth:`EcoOptimizer.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.core.derive import derive_variants
from repro.core.search import GuidedSearch, SearchConfig, SearchResult
from repro.core.variants import Variant, instantiate
from repro.eval import EvalEngine
from repro.ir.nest import Kernel
from repro.machines import MachineSpec
from repro.sim import Counters, execute

__all__ = ["EcoOptimizer", "TunedKernel"]


@dataclass
class TunedKernel:
    """A tuned implementation: recipe + parameter values + prefetching."""

    kernel: Kernel
    machine: MachineSpec
    result: SearchResult

    @property
    def variant(self) -> Variant:
        return self.result.variant

    def build(self) -> Kernel:
        """The transformed kernel (IR), e.g. for C emission."""
        from repro.transforms.padding import pad_arrays

        built = instantiate(
            self.kernel,
            self.result.variant,
            self.result.values,
            self.machine,
            self.result.prefetch,
        )
        if self.result.pads:
            built = pad_arrays(built, self.result.pads)
        return built

    def measure(self, problem: Mapping[str, int]) -> Counters:
        """Run the tuned version at another problem size."""
        return execute(self.build(), problem, self.machine)

    def describe(self) -> str:
        values = ", ".join(f"{k}={v}" for k, v in sorted(self.result.values.items()))
        prefetch = ", ".join(
            f"{site.array}@{site.loop}+{dist}"
            for site, dist in self.result.prefetch.items()
        )
        lines = [
            f"ECO tuned {self.kernel.name} on {self.machine.name}:",
            f"  selected {self.result.variant.name} with {values}",
            f"  prefetch: {prefetch or 'none'}",
            f"  search: {self.result.points} points, "
            f"{self.result.seconds:.1f}s, "
            f"{self.result.variants_considered} variants",
        ]
        return "\n".join(lines)


class EcoOptimizer:
    """The paper's system: models + heuristics + guided empirical search."""

    def __init__(
        self,
        kernel: Kernel,
        machine: MachineSpec,
        config: Optional[SearchConfig] = None,
        max_variants: int = 12,
        engine: Optional[EvalEngine] = None,
    ) -> None:
        self.kernel = kernel
        self.machine = machine
        self.config = config or SearchConfig()
        self.max_variants = max_variants
        self.engine = engine
        self._variants: Optional[List[Variant]] = None

    @property
    def variants(self) -> List[Variant]:
        """Phase 1's output (derived lazily, cached)."""
        if self._variants is None:
            self._variants = derive_variants(
                self.kernel, self.machine, self.max_variants
            )
        return self._variants

    def optimize(self, problem: Mapping[str, int]) -> TunedKernel:
        """Run both phases at the given (representative) problem size."""
        search = GuidedSearch(
            self.kernel, self.machine, problem, self.config, engine=self.engine
        )
        engine = search.engine
        with engine.tracer.span(
            "optimizer",
            kernel=self.kernel.name,
            machine=self.machine.name,
            problem=dict(sorted(problem.items())),
            variants=len(self.variants),
        ) as span:
            result = search.run(self.variants)
            span.set(variant=result.variant.name, cycles=result.cycles,
                     points=result.points)
        engine.metrics.counter("eco.optimizations").inc()
        return TunedKernel(kernel=self.kernel, machine=self.machine, result=result)
