"""Model-driven-only optimization (the Yotov et al. comparison).

The paper is framed against "Is search really necessary to generate
high-performance BLAS?" [Yotov et al., refs 26/27], which showed that
*model-selected* parameters get close to empirically searched ones.  This
baseline runs exactly ECO's phase 1 — the same variants, the same
constraints — but replaces phase 2 with the models' answers:

* the variant is chosen by model preference (the derivation order; copy
  variants preferred, predicted-fit checked against the problem size);
* parameters take the search's *initial heuristic values* (fill each
  level's usable capacity, fill the register file) with no experiments;
* prefetching is enabled at a fixed model distance for every streaming
  array (latency / loop-issue estimate).

Comparing this against full ECO quantifies what the guided search itself
buys — the paper's open question (1) in §1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.derive import derive_variants
from repro.core.search import GuidedSearch, SearchConfig
from repro.core.variants import PrefetchSite, Variant, prefetch_sites
from repro.eval import EvalEngine
from repro.ir.nest import Kernel
from repro.machines import MachineSpec
from repro.sim import Counters
from repro.transforms import TransformError

__all__ = ["ModelDriven"]


@dataclass
class ModelDriven:
    """Phase 1 + model heuristics, zero empirical experiments."""

    kernel: Kernel
    machine: MachineSpec
    #: the engine the *final* measurement (not part of the search
    #: budget) runs through, cached alongside everyone else's results
    #: when shared; a private serial engine otherwise
    engine: Optional[EvalEngine] = None

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = EvalEngine(self.machine)

    @property
    def name(self) -> str:
        return "Model-driven"

    @property
    def search_points(self) -> int:
        return 0

    def plan(self, problem: Mapping[str, int]):
        """(variant, values, prefetch) chosen purely from the models."""
        variants = derive_variants(self.kernel, self.machine)
        helper = GuidedSearch(self.kernel, self.machine, dict(problem), SearchConfig())
        chosen: Optional[Variant] = None
        values: Dict[str, int] = {}
        # Prefer, in derivation (preference) order: a variant whose hard
        # constraints hold at the heuristic point and whose soft
        # (fits-this-level) predictions hold at this problem size; fall
        # back to hard-feasible only.
        fallback = None
        for variant in variants:
            candidate = helper.initial_values(variant)
            env = {**candidate, **problem}
            if not variant.feasible(env):
                continue
            if fallback is None:
                fallback = (variant, candidate)
            if variant.predicted_fit(env):
                chosen, values = variant, candidate
                break
        if chosen is None:
            if fallback is None:
                raise TransformError("model-driven: no feasible variant")
            chosen, values = fallback
        prefetch = self._model_prefetch(chosen)
        return chosen, values, prefetch

    def _model_prefetch(self, variant: Variant) -> Dict[PrefetchSite, int]:
        """Fixed model distance: memory latency over an issue estimate."""
        latency = self.machine.memory_latency
        issue_per_iter = 8.0  # a typical register-tiled iteration
        distance = max(1, round(latency / issue_per_iter))
        return {
            site: distance for site in prefetch_sites(self.kernel, variant)
        }

    def measure(self, problem: Mapping[str, int]) -> Counters:
        variant, values, prefetch = self.plan(problem)
        with self.engine.tracer.span(
            "model-driven",
            kernel=self.kernel.name,
            machine=self.machine.name,
            variant=variant.name,
            values=dict(values),
        ) as span:
            outcome = self.engine.evaluate(
                self.kernel, variant, values, dict(problem), prefetch
            )
            span.set(cycles=outcome.cycles if outcome.feasible else None)
        self.engine.metrics.counter("baseline.modeldriven.plans").inc()
        if outcome.counters is None:
            if outcome.transient:
                # Environment trouble, not a bad plan: retrying the
                # whole measurement later can succeed.
                raise TransformError(
                    "model-driven: measurement failed transiently "
                    "(retries exhausted) — re-run to re-attempt"
                )
            raise TransformError("model-driven: chosen variant failed to build")
        return outcome.counters
