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
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.checkpoint import SearchJournal
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
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        fs_faults=None,
    ) -> None:
        self.kernel = kernel
        self.machine = machine
        self.config = config or SearchConfig()
        self.max_variants = max_variants
        self.engine = engine
        #: with a checkpoint path, phase 2 journals every completed stage
        #: atomically; ``resume=True`` additionally replays an existing
        #: journal, so an interrupted tune continues where it died
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        #: optional seeded filesystem fault plan, forwarded to the journal
        #: (the result cache takes its own reference at construction)
        self.fs_faults = fs_faults
        #: the journal of the most recent :meth:`optimize` call (for
        #: callers that report resume provenance, e.g. ``tune --resume``)
        self.journal: Optional[SearchJournal] = None
        self._variants: Optional[List[Variant]] = None

    @property
    def variants(self) -> List[Variant]:
        """Phase 1's output (derived lazily, cached)."""
        if self._variants is None:
            self._variants = derive_variants(
                self.kernel, self.machine, self.max_variants
            )
        return self._variants

    def journal_scope(self, problem: Mapping[str, int]) -> Dict[str, object]:
        """The fingerprint a checkpoint must match to be resumed: the
        same kernel, machine, problem and search configuration."""
        return {
            "kind": "eco-guided-search",
            "kernel": self.kernel.name,
            "machine": self.machine.name,
            "problem": dict(sorted(problem.items())),
            "max_variants": self.max_variants,
            "config": {
                "full_search_variants": self.config.full_search_variants,
                "search_padding": self.config.search_padding,
                # prescreen changes which candidates are measured, so it is
                # trajectory-affecting; pipelining is not (same decisions at
                # any -j / pipeline mode), so it stays out of the scope.
                "prescreen": self.config.prescreen,
                # the learned ranker is trajectory-affecting the same way;
                # the trained artifact's fingerprint (stable across the
                # in-search online refits, and covering the seed of its
                # exploration draws) scopes the checkpoint, so a journal
                # written under one model never resumes under another
                "ranker": (
                    self.config.ranker.fingerprint
                    if self.config.ranker is not None
                    else None
                ),
                # a transfer-tuning warm start changes the visit order
                # (the staged search climbs from the donor's point), so a
                # journal written warm never resumes cold or under a
                # different donor
                "warm_seeds": (
                    {
                        name: dict(sorted(seed.items()))
                        for name, seed in sorted(self.config.warm_seeds.items())
                    }
                    if self.config.warm_seeds
                    else None
                ),
            },
        }

    def optimize(self, problem: Mapping[str, int]) -> TunedKernel:
        """Run both phases at the given (representative) problem size."""
        self.journal = None
        if self.checkpoint_path is not None:
            self.journal = SearchJournal(
                self.checkpoint_path,
                scope=self.journal_scope(problem),
                resume=self.resume,
                fs_faults=self.fs_faults,
            )
        search = GuidedSearch(
            self.kernel, self.machine, problem, self.config, engine=self.engine,
            journal=self.journal,
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
