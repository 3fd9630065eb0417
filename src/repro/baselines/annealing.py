"""Simulated-annealing search over the variant/parameter space.

The paper's related work (§5) points at AI search techniques — simulated
annealing [Pike & Hilfinger], genetic algorithms — noting their promise
and their cost ("little if any domain knowledge to limit the search
space"), and anticipates combining them with ECO's models.  This module
does that combination in the simplest form: annealing over the *derived*
variant space (so the models still shape the space) with neighbourhood
moves on parameters and prefetch distances.

Used by the ablation suite as a third point between unguided random
sampling and ECO's staged search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.derive import derive_variants
from repro.core.variants import PrefetchSite, Variant, prefetch_sites
from repro.eval import EvalEngine
from repro.ir.nest import Kernel
from repro.machines import MachineSpec

__all__ = ["AnnealingSearch", "AnnealingResult"]

#: starting temperature, on the relative-cycle scale of :meth:`_accept`
_INITIAL_TEMPERATURE = 0.3
#: geometric cooling factor applied after every step
_COOLING = 0.92


@dataclass
class AnnealingResult:
    variant: Optional[Variant]
    values: Dict[str, int]
    prefetch: Dict[PrefetchSite, int]
    cycles: float
    points: int
    accepted: int

    @property
    def found_any(self) -> bool:
        return self.variant is not None and math.isfinite(self.cycles)


@dataclass
class AnnealingSearch:
    """Classic Metropolis annealing with geometric cooling."""

    kernel: Kernel
    machine: MachineSpec
    seed: int = 0
    #: evaluation engine (annealing is inherently sequential — each move
    #: depends on the last acceptance — but the engine's cache still spares
    #: it from re-simulating revisited states)
    engine: Optional[EvalEngine] = None

    def run(self, problem: Mapping[str, int], budget: int) -> AnnealingResult:
        if self.engine is None:
            self.engine = EvalEngine(self.machine)
        with self.engine.tracer.span(
            "annealing",
            kernel=self.kernel.name,
            machine=self.machine.name,
            budget=budget,
            seed=self.seed,
            cooling=_COOLING,
        ) as span:
            result = self._run(problem, budget)
            span.set(
                cycles=result.cycles if result.found_any else None,
                accepted=result.accepted,
            )
        self.engine.metrics.counter("baseline.annealing.points").inc(result.points)
        self.engine.metrics.counter("baseline.annealing.accepted").inc(result.accepted)
        return result

    def _run(self, problem: Mapping[str, int], budget: int) -> AnnealingResult:
        rng = random.Random(self.seed)
        variants = derive_variants(self.kernel, self.machine, max_variants=20)
        state = self._initial_state(rng, variants)
        state_cycles = self._measure(state, problem)
        best = (state_cycles, state)
        temperature = _INITIAL_TEMPERATURE
        points = 1
        accepted = 0
        while points < budget:
            candidate = self._neighbour(rng, variants, state)
            cycles = self._measure(candidate, problem)
            points += 1
            if self._accept(rng, state_cycles, cycles, temperature):
                state, state_cycles = candidate, cycles
                accepted += 1
                if cycles < best[0]:
                    best = (cycles, candidate)
            temperature *= _COOLING
        cycles, (variant, values, prefetch) = best
        if not math.isfinite(cycles):
            return AnnealingResult(None, {}, {}, math.inf, points, accepted)
        return AnnealingResult(variant, values, prefetch, cycles, points, accepted)

    # ------------------------------------------------------------------
    def _initial_state(self, rng, variants):
        variant = variants[0]
        values = {}
        for _, param in variant.tiles:
            values[param] = 8
        for _, param in variant.unrolls:
            values[param] = 2
        return (variant, values, {})

    def _neighbour(self, rng, variants, state):
        variant, values, prefetch = state
        move = rng.random()
        if move < 0.15:
            # Jump to a different variant, carrying shared parameters over.
            new_variant = rng.choice(variants)
            new_values = {}
            for _, param in new_variant.tiles:
                new_values[param] = values.get(param, 8)
            for _, param in new_variant.unrolls:
                new_values[param] = values.get(param, 2)
            return (new_variant, new_values, {})
        values = dict(values)
        prefetch = dict(prefetch)
        if move < 0.85 and values:
            param = rng.choice(sorted(values))
            factor = rng.choice((0.5, 2.0))
            values[param] = max(1, int(values[param] * factor))
        else:
            sites = prefetch_sites(self.kernel, variant)
            if sites:
                site = rng.choice(sites)
                if site in prefetch and rng.random() < 0.5:
                    del prefetch[site]
                else:
                    prefetch[site] = rng.choice((1, 2, 4, 8))
        return (variant, values, prefetch)

    def _measure(self, state, problem) -> float:
        variant, values, prefetch = state
        full = {**values, **dict(problem)}
        if not variant.feasible(full):
            return math.inf
        if self.engine is None:
            self.engine = EvalEngine(self.machine)
        # Stays a one-point evaluation by design: a Metropolis chain is
        # inherently sequential (the next proposal depends on this
        # accept/reject), so there is no independent batch to fan out.
        outcome = self.engine.evaluate(
            self.kernel, variant, values, dict(problem), prefetch
        )
        return outcome.cycles

    def _accept(self, rng, current: float, candidate: float, temperature: float) -> bool:
        if candidate <= current:
            return True
        if not math.isfinite(candidate) or not math.isfinite(current):
            return False
        relative = (candidate - current) / current
        return rng.random() < math.exp(-relative / max(1e-9, temperature))
