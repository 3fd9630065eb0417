"""Mini-ATLAS baseline: pure orthogonal empirical search for Matrix Multiply.

ATLAS [Whaley, Petitet & Dongarra 2001] generates matrix multiply from a
fixed code skeleton — NB×NB×NB cache blocking with the operand tiles
copied to contiguous buffers, MU×NU register blocking — and tunes the
parameters by *pure empirical search* over a parameter grid, one
parameter axis at a time, with no model pruning beyond hard register
limits.  This module reproduces that behaviour on the simulator:

* fixed skeleton: ``J, I, K`` point order, all three loops blocked by a
  single ``NB``, A and B tiles copied (ATLAS's "copy" matmul), registers
  blocked ``MU x NU``;
* like real ATLAS (and as the paper observes in Figure 4's small sizes),
  the copy kernel is only used when the problem is large enough to
  amortize the copy — below the threshold the no-copy skeleton runs and
  performance fluctuates with the leading dimension;
* orthogonal search: sweep NB on a fixed register block, then the
  (MU, NU) grid, then re-sweep NB, then the prefetch distance axis.  The
  number of points is therefore a multiple of ECO's guided search — the
  paper's §4.3 reports ATLAS taking 2-4x longer to tune.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.variants import (
    Constraint,
    CopyPlan,
    LevelPlan,
    PrefetchSite,
    Variant,
)
from repro.eval import EvalEngine, EvalOutcome, EvalRequest
from repro.ir.expr import Const, Var
from repro.kernels import matmul
from repro.machines import MachineSpec
from repro.sim import Counters
from repro.transforms import TransformError

__all__ = ["MiniAtlas"]

#: ATLAS times each candidate several times and keeps the minimum, because
#: real timers are noisy.  The simulator is deterministic, so the
#: repetitions are charged to the machine-time account rather than
#: re-simulated.
_TIMING_REPS = 3


def _skeleton(with_copy: bool) -> Variant:
    """The fixed ATLAS matmul recipe as a Variant (single NB parameter)."""
    tiles = (("I", "NB"), ("J", "NB"), ("K", "NB"))
    copies: Tuple[CopyPlan, ...] = ()
    if with_copy:
        copies = (
            CopyPlan(array="A", temp="Q", dims=((0, "I"), (1, "K")), level=1),
            CopyPlan(array="B", temp="P", dims=((0, "K"), (1, "J")), level=1),
        )
    reg_fp = Var("MU") * Var("NU")
    return Variant(
        name="atlas-copy" if with_copy else "atlas-nocopy",
        kernel_name="mm",
        point_order=("J", "I", "K"),
        control_order=("K", "J", "I"),
        tiles=tiles,
        unrolls=(("I", "MU"), ("J", "NU"), ("K", "KU")),
        register_loop="K",
        copies=copies,
        levels=(
            LevelPlan("Reg", "K", (), "MU x NU register block, KU K-unroll", ("MU", "NU", "KU")),
            LevelPlan("L1", "I", (), "NB blocking" + (", copy A,B" if with_copy else ""), ("NB",)),
        ),
        constraints=(
            Constraint(reg_fp, Const(32), "MU*NU <= 32 (registers)"),
        ),
    )


@dataclass
class MiniAtlas:
    """ATLAS-style self-tuning matrix multiply."""

    machine: MachineSpec
    #: the evaluation engine every sweep and measurement goes through
    #: (cache, parallelism, worker supervision); a private serial engine
    #: when none is shared
    engine: Optional[EvalEngine] = None

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = EvalEngine(self.machine)
        self.kernel = matmul()
        self._tuned: Optional[Dict[str, int]] = None
        self._prefetch_distance = 0
        self.search_points = 0
        self.search_seconds = 0.0
        self.machine_seconds = 0.0
        self._cache: Dict[Tuple, float] = {}

    @property
    def copy_threshold_elems(self) -> int:
        """Copy once the three matrices stop fitting in L1 together."""
        return self.machine.l1.capacity // 8

    @property
    def name(self) -> str:
        return "ATLAS"

    # -- search grids -------------------------------------------------------
    # ATLAS sweeps parameter axes exhaustively, with no model to prune them:
    # NB in steps of 2 lines' worth, every legal (MU, NU) register block,
    # the K-unroll axis and the prefetch-distance axis, and it re-sweeps NB
    # after the register block is chosen.  That breadth (vs ECO's pruned,
    # staged walk) is what makes its tuning take several times longer
    # (paper §4.3).
    def _nb_grid(self, tuning_n: int) -> List[int]:
        l1_elems = self.machine.l1.capacity // 8
        max_nb = min(int(math.sqrt(l1_elems)) * 2, tuning_n)
        return [nb for nb in range(4, max_nb + 1, 2)] or [4]

    def _register_grid(self) -> List[Tuple[int, int]]:
        grid = []
        for mu in (1, 2, 3, 4, 5, 6, 8):
            for nu in (1, 2, 3, 4, 5, 6, 8):
                if mu * nu <= 32:
                    grid.append((mu, nu))
        return grid

    _KU_GRID = (1, 2, 4, 8)

    # -- measurement -------------------------------------------------------
    def _measure_grid(
        self, points: List[Tuple[Dict[str, int], int, int]]
    ) -> List[float]:
        """Cycles for one sweep's candidate points, in input order.

        The whole axis goes to ``evaluate_batch`` in one call: ATLAS's
        orthogonal sweeps are embarrassingly parallel, and the argmin
        consumes results in input order, so an engine with workers
        simulates the axis concurrently without being able to change the
        selected point.  Per-point accounting: search points,
        rep-weighted machine seconds, and the sweep cache with its
        transient-failure rule.
        """
        results: List[Optional[float]] = []
        todo: List[Tuple[int, Tuple, Dict[str, int], int, int]] = []
        for values, tuning_n, distance in points:
            key = (tuple(sorted(values.items())), tuning_n, distance)
            if key in self._cache:
                results.append(self._cache[key])
                continue
            results.append(None)
            todo.append((len(results) - 1, key, values, tuning_n, distance))
        if not todo:
            return [float(r) for r in results]
        variants: List[Variant] = []
        requests: List[EvalRequest] = []
        for _, _, values, tuning_n, distance in todo:
            variant, prefetch = self._plan({"N": tuning_n}, distance)
            variants.append(variant)
            requests.append(
                EvalRequest.build(
                    self.kernel, variant, values, {"N": tuning_n}, prefetch
                )
            )
        outcomes = self.engine.evaluate_batch(requests)
        # ATLAS's no-copy fallback when the copy skeleton cannot be built
        # at this size — batched the same way.
        retry = [
            i
            for i, (outcome, variant) in enumerate(zip(outcomes, variants))
            if outcome.status == "infeasible" and variant.name == "atlas-copy"
        ]
        if retry:
            fallbacks = self.engine.evaluate_batch(
                [
                    EvalRequest.build(
                        self.kernel,
                        _skeleton(False),
                        todo[i][2],
                        {"N": todo[i][3]},
                        self._plan({"N": todo[i][3]}, todo[i][4])[1],
                    )
                    for i in retry
                ]
            )
            for i, outcome in zip(retry, fallbacks):
                outcomes[i] = outcome
        for (index, key, values, tuning_n, distance), outcome in zip(todo, outcomes):
            self.search_points += 1
            if outcome.counters is not None:
                self.machine_seconds += _TIMING_REPS * outcome.counters.seconds
            if not outcome.transient:
                # A transient failure is re-attemptable: keep it out of the
                # sweep cache so a revisit measures instead of inheriting inf.
                self._cache[key] = outcome.cycles
            results[index] = outcome.cycles
        return [float(r) for r in results]

    def _plan(
        self, problem: Mapping[str, int], prefetch_distance: int
    ) -> Tuple[Variant, Dict[PrefetchSite, int]]:
        """The skeleton + prefetch map ATLAS uses at this problem size."""
        n = int(problem["N"])
        with_copy = n * n >= self.copy_threshold_elems
        prefetch: Dict[PrefetchSite, int] = {}
        if prefetch_distance > 0:
            target = "P" if with_copy else "B"
            prefetch[PrefetchSite(target, "K")] = prefetch_distance
            prefetch[PrefetchSite("Q" if with_copy else "A", "K")] = prefetch_distance
        return _skeleton(with_copy), prefetch

    def _evaluate(
        self, values: Dict[str, int], problem: Mapping[str, int], prefetch_distance: int
    ) -> EvalOutcome:
        """One candidate through the engine, with ATLAS's no-copy fallback
        when the copy skeleton cannot be built at this size."""
        variant, prefetch = self._plan(problem, prefetch_distance)
        outcome = self.engine.evaluate(
            self.kernel, variant, values, dict(problem), prefetch
        )
        if outcome.status == "infeasible" and variant.name == "atlas-copy":
            outcome = self.engine.evaluate(
                self.kernel, _skeleton(False), values, dict(problem), prefetch
            )
        return outcome

    # -- tuning -------------------------------------------------------------
    def tune(self, tuning_n: int) -> Dict[str, int]:
        """Orthogonal line search over NB, (MU,NU), NB again, prefetch."""
        start = time.perf_counter()
        values = {"NB": 16, "MU": 4, "NU": 4, "KU": 1}

        def sweep_nb() -> None:
            grid = self._nb_grid(tuning_n)
            sweep = self._measure_grid(
                [({**values, "NB": nb}, tuning_n, 0) for nb in grid]
            )
            best_nb, best = values["NB"], math.inf
            for nb, cycles in zip(grid, sweep):
                if cycles < best:
                    best_nb, best = nb, cycles
            values["NB"] = best_nb

        def sweep_registers() -> None:
            grid = self._register_grid()
            sweep = self._measure_grid(
                [({**values, "MU": mu, "NU": nu}, tuning_n, 0) for mu, nu in grid]
            )
            best_reg, best = (values["MU"], values["NU"]), math.inf
            for (mu, nu), cycles in zip(grid, sweep):
                if cycles < best:
                    best_reg, best = (mu, nu), cycles
            values["MU"], values["NU"] = best_reg

        sweep_nb()
        sweep_registers()
        # K-unroll axis.
        sweep = self._measure_grid(
            [({**values, "KU": ku}, tuning_n, 0) for ku in self._KU_GRID]
        )
        best_ku, best = values["KU"], math.inf
        for ku, cycles in zip(self._KU_GRID, sweep):
            if cycles < best:
                best_ku, best = ku, cycles
        values["KU"] = best_ku
        sweep_nb()
        sweep_registers()
        # Prefetch axis (distance 0 first: the no-prefetch incumbent).
        distances = (0, 1, 2, 4, 8)
        sweep = self._measure_grid(
            [(dict(values), tuning_n, distance) for distance in distances]
        )
        best_distance, best = 0, sweep[0]
        for distance, cycles in zip(distances[1:], sweep[1:]):
            if cycles < best:
                best_distance, best = distance, cycles
        self._prefetch_distance = best_distance
        self._tuned = values
        self.search_seconds += time.perf_counter() - start
        return dict(values)

    def measure(self, problem: Mapping[str, int]) -> Counters:
        if self._tuned is None:
            raise RuntimeError("call tune() before measure()")
        outcome = self._evaluate(self._tuned, problem, self._prefetch_distance)
        if outcome.counters is not None:
            return outcome.counters
        raise TransformError(
            f"mini-ATLAS measurement failed ({outcome.status}) "
            f"at {dict(problem)}"
        )
