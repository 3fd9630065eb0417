"""Model-based candidate prescreen for the empirical search.

The paper's thesis is that models should shrink what empirical search
must measure.  This module is that thesis applied to our own search: a
cheap analytical *surrogate cost* for a candidate binding, built from

* the static miss model (:func:`repro.analysis.missmodel.estimate_misses`
  on the **instantiated** variant, so tiling/unrolling actually move the
  estimate), with each level's misses priced at the latency of the level
  that serves them; and
* the simulator's own issue model (:func:`repro.sim.cpu
  .iteration_issue_cycles`) applied statically per innermost loop —
  including its register-spill penalty, which is what prices excessive
  unroll factors.

The surrogate ranks; it does not predict absolute cycles.  The search
uses it to *prescreen*: a candidate whose surrogate score is worse than
the stage's running best by more than a safety margin is not simulated
at all.  Because the model ignores conflicts, alignment and TLB behaviour
(exactly the effects the paper says make the space hard to model), the
margin must absorb model error: skip only when

    score(candidate) > score(best) * (1 + margin)

with both sides scored by the same model (model-to-model comparison — a
model-to-measurement comparison would inherit the model's unknown bias).
Scoring is fail-open: any candidate the model cannot score (instantiation
fails, bounds do not evaluate) is simulated, never skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.missmodel import estimate_misses
from repro.core.variants import Variant, instantiate_base
from repro.ir.nest import ArrayRef, Assign, Kernel, Loop, Prefetch, scalars_read
from repro.machines import MachineSpec
from repro.sim.cpu import iteration_issue_cycles

__all__ = [
    "DEFAULT_MARGIN",
    "SkipVerdict",
    "Surrogate",
    "model_terms",
    "stall_cycles",
]

#: default safety margin: a candidate is skipped only when the model puts
#: it more than this fraction above the running best's score.  Calibrated
#: empirically on the golden mm searches across all four machine models
#: (docs/search.md): the largest observed misranking — a candidate the
#: model scored 1.273x the running best that actually beat it — sets the
#: floor, and 0.29 clears it with headroom while still pruning >25% of
#: the simulations on the machines where the search wanders most
DEFAULT_MARGIN = 0.29


def stall_cycles(per_level: Sequence[float], machine: MachineSpec) -> float:
    """Memory stall cycles of per-cache-level miss counts: a miss at level
    i is served by level i+1, the last level's misses go to memory.  (TLB
    stays out: the model cannot see it.)"""
    caches = machine.caches
    stalls = 0.0
    for i, misses in enumerate(per_level):
        if i + 1 < len(caches):
            stalls += misses * caches[i + 1].latency
        else:
            stalls += misses * machine.memory_latency
    return stalls


def model_terms(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    problem: Mapping[str, int],
    machine: MachineSpec,
) -> Optional[Tuple[float, Tuple[int, ...]]]:
    """The analytical model's view of one binding: static issue cycles
    and predicted misses per cache level, or ``None`` when the model
    cannot score it (fail open: such a candidate must be simulated).

    The variant is built by :func:`repro.core.variants.instantiate_base`,
    which the engine also builds through: the transform pipeline runs
    once per recipe shape, so a candidate scored here and simulated later
    only binds its tile sizes again.  The base IR is exactly what
    ``instantiate`` without prefetch yields.
    """
    try:
        inst = instantiate_base(kernel, variant, values, machine)
        est = estimate_misses(inst, problem, machine)
        issue = _issue_cycles(inst, problem, machine)
    except Exception:
        return None
    return issue, est.per_level


@dataclass(frozen=True)
class SkipVerdict:
    """Why a candidate was skipped: its score vs the allowed bound."""

    score: float
    bound: float


class Surrogate:
    """Per-search surrogate scorer with a score cache.

    One instance serves one ``(kernel, machine, problem)``; scores are
    memoized by ``(variant, values)`` so re-scoring the running best at
    every comparison is free.
    """

    def __init__(
        self,
        kernel: Kernel,
        machine: MachineSpec,
        problem: Mapping[str, int],
        margin: float = DEFAULT_MARGIN,
    ) -> None:
        if margin < 0:
            raise ValueError("margin must be >= 0")
        self.kernel = kernel
        self.machine = machine
        self.problem = dict(problem)
        self.margin = margin
        self._scores: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], Optional[float]] = {}

    # -- scoring ---------------------------------------------------------
    def score(self, variant: Variant, values: Mapping[str, int]) -> Optional[float]:
        """Surrogate cost of one binding; ``None`` = cannot be scored."""
        key = (variant.name, tuple(sorted((k, int(v)) for k, v in values.items())))
        if key in self._scores:
            return self._scores[key]
        terms = model_terms(
            self.kernel, variant, values, self.problem, self.machine
        )
        result = None
        if terms is not None:
            issue, per_level = terms
            result = issue + stall_cycles(per_level, self.machine)
        self._scores[key] = result
        return result

    def judge(
        self,
        variant: Variant,
        values: Mapping[str, int],
        best_values: Mapping[str, int],
    ) -> Optional[SkipVerdict]:
        """Should ``values`` be skipped given the stage's running best?

        Returns a :class:`SkipVerdict` when the model bounds the candidate
        strictly worse than ``best_values`` by more than the margin, else
        ``None`` (simulate).  Unscorable candidates are never skipped.
        """
        best = self.score(variant, best_values)
        if best is None:
            return None
        cand = self.score(variant, values)
        if cand is None:
            return None
        bound = best * (1.0 + self.margin)
        if cand > bound:
            return SkipVerdict(score=cand, bound=bound)
        return None


def _issue_cycles(
    kernel: Kernel, params: Mapping[str, int], machine: MachineSpec
) -> float:
    """Static issue-cycle estimate: the simulator's per-iteration issue
    model summed over representative trip counts (each loop evaluated at
    the first iteration of its enclosing loops, as in the miss model)."""
    total = [0.0]
    _walk_issue(kernel, kernel.body, dict(params), 1.0, machine, total)
    return total[0]


def _walk_issue(kernel, nodes, env, mult, machine, total) -> None:
    stmts = [node for node in nodes if not isinstance(node, Loop)]
    if stmts:
        total[0] += mult * _body_issue(kernel, stmts, machine)
    for node in nodes:
        if not isinstance(node, Loop):
            continue
        trips = max(0, node.trip_count(env))
        if trips == 0:
            continue
        inner_env = dict(env)
        inner_env[node.var] = int(node.lower.evaluate(env))
        _walk_issue(kernel, node.body, inner_env, mult * trips, machine, total)


def _body_issue(kernel, stmts, machine: MachineSpec) -> float:
    """Issue cycles for one iteration of a statement list (mirrors the
    executor's ``_schedule_for`` counting, including live scalars)."""
    flops = 0
    loads = stores = prefetches = moves = 0
    scalars = set(kernel.consts)
    for stmt in stmts:
        if isinstance(stmt, Prefetch):
            prefetches += 1
            continue
        if not isinstance(stmt, Assign):
            continue
        flops += stmt.value.flops()
        stmt_reads = list(stmt.value.reads())
        loads += len(stmt_reads)
        scalars.update(scalars_read(stmt.value))
        if isinstance(stmt.target, ArrayRef):
            stores += 1
        else:
            scalars.add(stmt.target)
            if not stmt_reads and stmt.value.flops() == 0:
                moves += 1
    return iteration_issue_cycles(
        machine,
        flops,
        loads + stores + prefetches,
        moves,
        len(scalars),
    )
