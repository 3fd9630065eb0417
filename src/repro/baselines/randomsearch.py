"""Unguided random search: the paper's thesis, quantified.

The paper argues (§1, §5) that purely empirical search "is not practical
... because the search space of possible variants and their parameters is
prohibitively large", and that AI-style searches "incorporate little if
any domain knowledge to limit the search space".  This baseline samples
the same implementation space ECO searches — a random derived variant,
random power-of-two parameters, a random prefetch distance — but with *no
models*: no constraint pruning (infeasible samples waste experiments the
way a crashing or register-spilling build wastes a compile-and-run), no
staging, no initial heuristic.

Used by the ablation benchmarks: at ECO's experiment budget, random
search reaches a (usually much) worse best point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.derive import derive_variants
from repro.core.variants import PrefetchSite, Variant, prefetch_sites
from repro.eval import EvalEngine, EvalRequest
from repro.ir.nest import Kernel
from repro.machines import MachineSpec

__all__ = ["RandomSearch", "RandomSearchResult"]

_POW2_TILES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_UNROLLS = (1, 2, 3, 4, 6, 8, 12, 16)
_DISTANCES = (0, 1, 2, 4, 8)


@dataclass
class RandomSearchResult:
    """Best point found within the budget."""

    variant: Optional[Variant]
    values: Dict[str, int]
    prefetch: Dict[PrefetchSite, int]
    cycles: float
    points: int
    wasted: int  # infeasible / failing samples that consumed budget

    @property
    def found_any(self) -> bool:
        return self.variant is not None and math.isfinite(self.cycles)


@dataclass
class RandomSearch:
    """Budgeted uniform sampling over the untamed implementation space.

    Sampling is split from evaluation: the whole budget is drawn up front
    (the draws are independent of the results), duplicates are charged as
    wasted budget, and the distinct samples go to the evaluation engine in
    one batch — which simulates them in parallel when the engine has
    ``jobs > 1``.  The best point is picked by first-strictly-better scan,
    so results are identical to the old sequential loop at any job count.
    """

    kernel: Kernel
    machine: MachineSpec
    seed: int = 0
    engine: Optional[EvalEngine] = None

    def run(self, problem: Mapping[str, int], budget: int) -> RandomSearchResult:
        engine = self.engine if self.engine is not None else EvalEngine(self.machine)
        with engine.tracer.span(
            "random-search",
            kernel=self.kernel.name,
            machine=self.machine.name,
            budget=budget,
            seed=self.seed,
        ) as span:
            result = self._run(engine, problem, budget)
            span.set(
                cycles=result.cycles if result.found_any else None,
                wasted=result.wasted,
            )
        engine.metrics.counter("baseline.random.samples").inc(result.points)
        engine.metrics.counter("baseline.random.wasted").inc(result.wasted)
        return result

    def _run(
        self, engine: EvalEngine, problem: Mapping[str, int], budget: int
    ) -> RandomSearchResult:
        rng = random.Random(self.seed)
        variants = derive_variants(self.kernel, self.machine, max_variants=20)
        samples: List[Tuple[Variant, Dict[str, int], Dict[PrefetchSite, int]]] = []
        wasted = 0
        seen = set()
        for _ in range(budget):
            variant = rng.choice(variants)
            values: Dict[str, int] = {}
            for _, param in variant.tiles:
                values[param] = rng.choice(_POW2_TILES)
            for _, param in variant.unrolls:
                values[param] = rng.choice(_UNROLLS)
            prefetch: Dict[PrefetchSite, int] = {}
            for site in prefetch_sites(self.kernel, variant):
                distance = rng.choice(_DISTANCES)
                if distance:
                    prefetch[site] = distance
            key = (
                variant.name,
                tuple(sorted(values.items())),
                tuple(sorted((s.array, s.loop, d) for s, d in prefetch.items())),
            )
            if key in seen:
                wasted += 1  # resampled a point: budget spent, nothing learned
                continue
            seen.add(key)
            samples.append((variant, values, prefetch))

        with engine.stage("random"):
            outcomes = engine.evaluate_batch(
                [
                    EvalRequest.build(self.kernel, v, values, problem, prefetch)
                    for v, values, prefetch in samples
                ]
            )
        best: Tuple[float, Optional[Variant], Dict[str, int], Dict[PrefetchSite, int]]
        best = (math.inf, None, {}, {})
        for (variant, values, prefetch), outcome in zip(samples, outcomes):
            cycles = outcome.cycles
            if not math.isfinite(cycles):
                wasted += 1  # failing build: budget spent, nothing learned
                continue
            if cycles < best[0]:
                best = (cycles, variant, dict(values), dict(prefetch))
        cycles, variant, values, prefetch = best
        return RandomSearchResult(
            variant=variant,
            values=values,
            prefetch=prefetch,
            cycles=cycles,
            points=budget,
            wasted=wasted,
        )
