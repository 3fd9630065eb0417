"""Trace-driven execution of a kernel on the simulated machine.

``execute(kernel, params, machine)`` walks the loop tree and feeds the
:class:`~repro.sim.memsys.MemorySystem` one ordered address stream.  The
hot path is *cross-loop batching*: any subtree of up to three loop levels
whose leaves are statement bodies (the shape every tiled / unroll-and-
jammed mm and Jacobi variant has) is compiled once into a fused program —
per-iteration access patterns plus a per-access issue-cycle charge — and
executed by materializing the whole subtree's address stream with numpy
(ragged iteration spaces flattened with repeat/cumsum arithmetic) instead
of one tiny batch per innermost trip.  Every access of a fused program
has an affine byte address, so a chunk of instances emits with one
integer matmul.  Loops that cannot fuse (deeper nests, duplicate loop
variables, a non-affine subscript) iterate in Python and fuse below, or
run an innermost body on the vectorized per-trip path.

Issue time is folded into the stream exactly: a statement's issue cycles
ride on its first access, loop overhead rides on each iteration's first
entry, and pure-advance work (scalar moves, dropped prefetches) becomes
phantom entries whose charge folds into the next kept access — so the
cumulative ``now`` at every access equals the reference's, up to float
reassociation (the documented intra-batch tolerance; hit/miss counts are
independent of timing and stay byte-identical).

Schedules and fused programs are compiled once per loop object and
machine, in one locked, process-wide LRU: the evaluation engine
simulates a recipe shape whose tile sizes are symbols (``bindings``),
so every tile binding of a shape reuses its programs.  A compiled program holds no
number a binding changes.  Each run binds its own loop bounds, loop
steps (a control loop steps by its symbolic tile size), the array
layout — folded into each emit plan's constants and coefficients with
integer arithmetic — and the slab estimates that set chunk boundaries.

``execute(..., reference=True)`` runs the pre-batching paths (scalar
statements, one batch per innermost trip, per-access memory system) and
is the baseline for ``tests/test_sim_parity.py``.

The result is a :class:`~repro.sim.counters.Counters` with the PAPI-style
numbers of the paper's Table 1 (Loads, L1/L2 misses, TLB misses, Cycles)
plus MFLOPS.

This is the "run it on the machine" primitive of the guided empirical
search: phase 2 calls ``execute`` for every experiment it performs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.layout import MemoryLayout
from repro.ir.expr import linear_form
from repro.ir.nest import (
    ArrayRef,
    Kernel,
    Loop,
    Node,
    Prefetch,
    Statement,
    scalars_read,
)
from repro.machines import MachineSpec
from repro.sim.counters import Counters
from repro.sim.cpu import iteration_issue_cycles
from repro.sim.memsys import (
    KIND_LOAD,
    KIND_PREFETCH,
    KIND_STORE,
    MemorySystem,
)

__all__ = ["execute", "execute_batch", "ExecutionError"]

#: deepest loop nesting one fused program may cover
_MAX_FUSE_DEPTH = 6
#: target stream entries per fused batch (chunked at root-iteration
#: granularity to bound peak memory on large problems)
_CHUNK_ENTRIES = 1 << 18
_MAX_SLAB_ENTRIES = 32 * _CHUNK_ENTRIES
#: kind marker for phantom (advance-only) stream entries
_PHANTOM = -1

_MISSING = object()


class ExecutionError(RuntimeError):
    """Raised on out-of-bounds demand accesses during simulation."""


@dataclass
class _Schedule:
    """Precompiled access schedule of one innermost loop body."""

    accesses: List[Tuple[ArrayRef, int]]  # (reference, kind) in issue order
    flops_per_iter: int
    loads_per_iter: int
    stores_per_iter: int
    prefetches_per_iter: int
    scalar_moves_per_iter: int
    live_scalars: int


class _Entry:
    """One stream entry of a fused pattern: an access, or a phantom
    carrying advance-only cycles (scalar move, loop-overhead share)."""

    __slots__ = ("ref", "kind", "cpa")

    def __init__(self, ref: Optional[ArrayRef], kind: int, cpa: float) -> None:
        self.ref = ref
        self.kind = kind
        self.cpa = cpa


class _EmitPlan:
    """Affine address plan of one entry list, free of any layout: row
    ``r`` reads array ``arrays[array_of[r]]`` at subscript ``d``
    ``index_consts[r, d] + 1 + index_coeffs[r, d] @ vars``.  A run binds
    its layout into ``consts[r] + coeffs[r] @ vars`` byte addresses
    (:func:`_bind_plan`), so a whole chunk of instances emits with one
    integer matmul and four scatters."""

    __slots__ = (
        "entries",
        "phantoms",
        "offs",
        "kinds",
        "cpas",
        "names",
        "arrays",
        "array_of",
        "index_consts",
        "index_coeffs",
        "sim_index",
    )

    def __init__(self, entries: List["_Entry"]) -> None:
        self.entries = entries


def _affine(entries: List["_Entry"]) -> bool:
    """Whether every access of ``entries`` has an affine address — the
    condition for their loop to fuse."""
    return all(
        linear_form(index_expr).affine
        for entry in entries
        if entry.ref is not None
        for index_expr in entry.ref.indices
    )


def _plan_entries(entries: List["_Entry"]) -> _EmitPlan:
    """The emit plan of one entry list whose accesses are all affine."""
    plan = _EmitPlan(entries)
    plan.phantoms = []
    rows = []  # (stream_offset, entry, [linear form per subscript])
    col: Dict[str, int] = {}  # var name -> coefficient column
    arrays: Dict[str, int] = {}  # array name -> layout row
    for e_i, entry in enumerate(entries):
        if entry.ref is None:
            plan.phantoms.append((e_i, entry.cpa))
            continue
        forms = [linear_form(index_expr) for index_expr in entry.ref.indices]
        for form in forms:
            for var, _ in form.terms:
                col.setdefault(var.name, len(col))
        arrays.setdefault(entry.ref.array, len(arrays))
        rows.append((e_i, entry, forms))
    n_sim = len(rows)
    rank = max((len(r[2]) for r in rows), default=0)
    plan.names = list(col)
    plan.arrays = list(arrays)
    plan.array_of = np.array([arrays[r[1].ref.array] for r in rows], dtype=np.intp)
    plan.offs = np.array([r[0] for r in rows], dtype=np.int64)
    plan.kinds = np.array([r[1].kind for r in rows], dtype=np.int8).reshape(-1, 1)
    plan.cpas = np.array([r[1].cpa for r in rows], dtype=np.float64).reshape(-1, 1)
    plan.index_consts = np.zeros((n_sim, rank), dtype=np.int64)
    plan.index_coeffs = np.zeros((n_sim, rank, len(col)), dtype=np.int64)
    for i, (_, _, forms) in enumerate(rows):
        for d, form in enumerate(forms):
            plan.index_consts[i, d] = form.const - 1
            for var, coeff in form.terms:
                plan.index_coeffs[i, d, col[var.name]] += coeff
    plan.sim_index = [r[0] for r in rows]
    return plan


def _bind_plan(
    plan: _EmitPlan, layout: MemoryLayout
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``plan`` under ``layout``: per row the byte-address constant and
    per-variable coefficients (each subscript's stride times the element
    size), and the array's ``[lo, hi)`` byte range."""
    rank = plan.index_consts.shape[1]
    scale = np.zeros((len(plan.arrays), rank), dtype=np.int64)
    lo = np.empty(len(plan.arrays), dtype=np.int64)
    hi = np.empty(len(plan.arrays), dtype=np.int64)
    for a, name in enumerate(plan.arrays):
        array = layout[name]
        strides = array.strides[:rank]
        scale[a, : len(strides)] = [stride * array.element_size for stride in strides]
        lo[a] = array.base
        hi[a] = array.end
    row_scale = scale[plan.array_of]
    consts = lo[plan.array_of] + (plan.index_consts * row_scale).sum(axis=1)
    coeffs = (plan.index_coeffs * row_scale[:, :, None]).sum(axis=1)
    return consts, coeffs, lo[plan.array_of], hi[plan.array_of]


@dataclass
class _StmtSlot:
    """A run of consecutive statements inside a fused (non-leaf) body."""

    entries: List[_Entry]
    flops: int
    loads: int
    stores: int
    prefetches: int
    scalar_moves: int
    #: the entries' emit plan, built when the slot first emits (loops
    #: that never run — e.g. an unroll remainder — never pay for one)
    plan: Optional[_EmitPlan] = None


@dataclass
class _FusedLoop:
    """A compiled loop of a fused program.

    Leaf loops (statements-only bodies) replay with the innermost-loop
    cost model: one uniform issue share per access.  Non-leaf loops
    charge ``loop_overhead`` as a phantom entry per iteration and walk
    their slots (statement runs and nested loops) in body order.
    """

    var: str
    lower: object
    upper: object
    step: object  # an int, or the symbolic tile size of a control loop
    leaf: bool
    entries: Optional[List[_Entry]]  # leaf: one iteration's entries
    schedule: Optional[_Schedule]  # leaf: counter basis
    slots: Optional[List[Union["_StmtSlot", "_FusedLoop"]]]  # non-leaf
    overhead: float  # non-leaf: phantom cycles per iteration
    size: int  # leaf: len(entries); non-leaf: fixed entries per iteration
    #: leaf: the entries' emit plan, built when the loop first emits
    plan: Optional[_EmitPlan] = None


#: bound of the memo below, in loops (each holds a root program or the
#: schedule of an innermost loop the fast path runs unfused)
_COMPILED_CAP = 8
#: an LRU of schedules and fused programs: ``id(loop)`` -> (the loop,
#: {(kind, kernel constants, machine): compiled}); holding the loop keeps
#: its id from being reused while the entry lives
_COMPILED: "OrderedDict[int, Tuple[Loop, Dict[tuple, object]]]" = OrderedDict()
_COMPILED_LOCK = threading.Lock()


def _compiled(loop: Loop, key: tuple, compile: Callable[[], object]) -> object:
    """``compile()`` memoized per loop object and ``key``."""
    with _COMPILED_LOCK:
        entry = _COMPILED.get(id(loop))
        if entry is not None:
            _COMPILED.move_to_end(id(loop))
            value = entry[1].get(key, _MISSING)
            if value is not _MISSING:
                return value
    value = compile()
    with _COMPILED_LOCK:
        entry = _COMPILED.get(id(loop))
        if entry is None:
            entry = _COMPILED[id(loop)] = (loop, {})
            while len(_COMPILED) > _COMPILED_CAP:
                _COMPILED.popitem(last=False)
        return entry[1].setdefault(key, value)


def clear_compiled() -> None:
    """Drop every compiled schedule and program."""
    with _COMPILED_LOCK:
        _COMPILED.clear()


class _Domain:
    """Flattened iteration space of one fused loop for one execution.

    Instances are ordered parent-major (all iterations of parent
    instance 0, then 1, ...), so any root-iteration range maps to one
    contiguous slice of every descendant's arrays.
    """

    __slots__ = (
        "values",
        "env",
        "counts",
        "parent_idx",
        "children",
        "inst_size",
        "contrib",
        "total",
    )

    def __init__(self) -> None:
        self.values: Optional[np.ndarray] = None  # own loop-var value per instance
        self.env: Dict[str, np.ndarray] = {}  # fused vars at instance granularity
        self.counts: Optional[np.ndarray] = None  # instances per parent instance
        self.parent_idx: Optional[np.ndarray] = None
        self.children: Dict[int, "_Domain"] = {}  # slot index -> child domain
        self.inst_size: Optional[np.ndarray] = None  # stream entries per instance
        self.contrib: Optional[np.ndarray] = None  # entries per parent instance
        self.total = 0


class _Stream:
    """One chunk's flat address stream under assembly."""

    __slots__ = ("addr", "kind", "cpa", "keep")

    def __init__(self, size: int) -> None:
        self.addr = np.zeros(size, dtype=np.int64)
        self.kind = np.full(size, _PHANTOM, dtype=np.int8)
        self.cpa = np.zeros(size, dtype=np.float64)
        self.keep = np.zeros(size, dtype=bool)


def _step(step, env: Mapping[str, int]) -> int:
    """A loop step under ``env`` (a control loop's is its tile size)."""
    return step if isinstance(step, int) else int(step.evaluate(env))


def _trip_count(lower: int, upper: int, step: int) -> int:
    if step > 0:
        return (upper - lower) // step + 1 if upper >= lower else 0
    return (lower - upper) // (-step) + 1 if lower >= upper else 0


def execute(
    kernel: Kernel,
    params: Mapping[str, int],
    machine: MachineSpec,
    reference: bool = False,
    bindings: Optional[Mapping[str, int]] = None,
) -> Counters:
    """Simulate ``kernel`` with the given sizes on ``machine``.

    ``bindings`` gives the values of further symbols in the kernel's loop
    headers and array shapes (the tile sizes of a recipe shape); unlike
    ``params`` they are not reported in ``Counters.params``.

    ``reference=True`` replays through the pre-batching scalar paths (the
    differential baseline for the parity suite); results agree with the
    default fast path on every count, with cycles equal up to the
    documented intra-batch issue-reassociation tolerance.
    """
    started = time.perf_counter()
    runner = _Runner(kernel, dict(params), machine, reference, bindings)
    runner.run()
    counters = runner.counters
    if kernel.flop_basis is not None:
        counters.useful_flops = int(kernel.flop_basis.evaluate(params))
    else:
        counters.useful_flops = counters.flops
    memsys = runner.memsys
    counters.cycles = memsys.now
    counters.stall_cycles = memsys.stall_cycles
    counters.tlb_stall_cycles = memsys.tlb_stall_cycles
    counters.cache_hits = memsys.hit_counts()
    counters.cache_misses = memsys.miss_counts()
    counters.tlb_hits = memsys.tlb_hits
    counters.tlb_misses = memsys.tlb_misses
    counters.sim_accesses = memsys.accesses
    counters.sim_batches = memsys.batches
    counters.sim_collapsed = memsys.collapsed
    counters.sim_timing_events = memsys.timing_events
    counters.sim_seconds = time.perf_counter() - started
    return counters


def execute_batch(
    tasks: Sequence[Tuple[Kernel, Mapping[str, int]]],
    machine: MachineSpec,
) -> List[Counters]:
    """Simulate several ``(kernel, params)`` candidates on ``machine``.

    A per-candidate loop over :func:`execute`, in input order.
    """
    return [execute(kernel, params, machine) for kernel, params in tasks]


class _Runner:
    def __init__(
        self,
        kernel: Kernel,
        params: Dict[str, int],
        machine: MachineSpec,
        reference: bool = False,
        bindings: Optional[Mapping[str, int]] = None,
    ):
        self.kernel = kernel
        self.env = dict(params, **(bindings or {}))
        self.machine = machine
        self.reference = reference
        self.layout = MemoryLayout.build(kernel, self.env, machine.tlb.page_size)
        self.memsys = MemorySystem(machine, reference=reference)
        self.counters = Counters(
            kernel=kernel.name,
            machine=machine.name,
            params=dict(params),
            clock_mhz=machine.clock_mhz,
        )
        # this run's view of the process-wide memo, and what it binds:
        # emit plans under this layout, slab estimates of root programs
        self._local: Dict[Tuple[str, int], object] = {}
        self._bound: Dict[int, tuple] = {}
        self._est: Dict[int, int] = {}

    def run(self) -> None:
        self._run_nodes(self.kernel.body, dict(self.env))

    def _memo(self, kind: str, loop: Loop, compile: Callable[[], object]):
        value = self._local.get((kind, id(loop)), _MISSING)
        if value is _MISSING:
            key = (kind, self.kernel.consts, self.machine if kind == "program" else None)
            value = self._local[(kind, id(loop))] = _compiled(loop, key, compile)
        return value

    # ------------------------------------------------------------------
    def _run_nodes(self, nodes: Tuple[Node, ...], env: Dict[str, int]) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                self._run_loop(node, env)
            else:
                self._run_statement(node, env)

    def _run_loop(self, loop: Loop, env: Dict[str, int]) -> None:
        if not self.reference:
            program = self._program_for(loop)
            if program is not None:
                est = self._est.get(id(program))
                if est is None:
                    est = self._est[id(program)] = max(1, self._estimate_iter(program, env))
                # One root iteration must fit in a slab; if it can't, run
                # this level interpreted — the children fuse on their own.
                if est <= _MAX_SLAB_ENTRIES:
                    self._run_fused(program, env)
                    return
        if all(isinstance(child, Statement) for child in loop.body):
            self._run_inner_loop(loop, env)
            return
        lower = int(loop.lower.evaluate(env))
        upper = int(loop.upper.evaluate(env))
        step = _step(loop.step, env)
        overhead = self.machine.loop_overhead
        for value in range(lower, upper + (1 if step > 0 else -1), step):
            env[loop.var] = value
            self.counters.loop_iterations += 1
            self.memsys.advance(overhead)
            self._run_nodes(loop.body, env)
        env.pop(loop.var, None)

    # -- statements outside innermost loops (scalar path) ----------------
    def _run_statement(self, stmt: Statement, env: Dict[str, int]) -> None:
        counters = self.counters
        if isinstance(stmt, Prefetch):
            addr = self._address(stmt.ref, env)
            counters.prefetches += 1
            layout = self.layout[stmt.ref.array]
            if layout.base <= addr < layout.end:
                self.memsys.access(addr, KIND_PREFETCH, 1.0)
            else:
                counters.dropped_prefetches += 1
                self.memsys.advance(1.0)
            return
        flops = stmt.value.flops()
        counters.flops += flops
        issue = max(flops / self.machine.flops_per_cycle, 0.0)
        reads = list(stmt.value.reads())
        if not reads and not isinstance(stmt.target, ArrayRef):
            counters.scalar_moves += 1
            self.memsys.advance(max(issue, 0.5))
            return
        self.memsys.advance(issue)
        for ref in reads:
            counters.loads += 1
            self.memsys.access(self._checked_address(ref, env), KIND_LOAD, 1.0)
        if isinstance(stmt.target, ArrayRef):
            counters.stores += 1
            self.memsys.access(
                self._checked_address(stmt.target, env), KIND_STORE, 1.0
            )

    # -- innermost loops (reference vectorized path) ----------------------
    def _run_inner_loop(self, loop: Loop, env: Dict[str, int]) -> None:
        lower = int(loop.lower.evaluate(env))
        upper = int(loop.upper.evaluate(env))
        step = _step(loop.step, env)
        count = _trip_count(lower, upper, step)
        if count <= 0:
            return
        schedule = self._schedule_for(loop)
        counters = self.counters
        counters.loop_iterations += count
        counters.flops += schedule.flops_per_iter * count
        counters.loads += schedule.loads_per_iter * count
        counters.stores += schedule.stores_per_iter * count
        counters.prefetches += schedule.prefetches_per_iter * count
        counters.scalar_moves += schedule.scalar_moves_per_iter * count

        mem_ops = (
            schedule.loads_per_iter
            + schedule.stores_per_iter
            + schedule.prefetches_per_iter
        )
        issue = iteration_issue_cycles(
            self.machine,
            schedule.flops_per_iter,
            mem_ops,
            schedule.scalar_moves_per_iter,
            schedule.live_scalars,
        )
        if mem_ops == 0:
            self.memsys.advance(issue * count)
            return
        cycles_per_access = issue / mem_ops

        values = np.arange(lower, lower + count * step, step, dtype=np.int64)
        env_vec: Dict[str, object] = dict(env)
        env_vec[loop.var] = values
        columns = []
        kinds = np.empty((len(schedule.accesses),), dtype=np.int8)
        drop_mask = None
        for pos, (ref, kind) in enumerate(schedule.accesses):
            layout = self.layout[ref.array]
            offset = np.zeros(count, dtype=np.int64)
            for index_expr, stride in zip(ref.indices, layout.strides):
                idx = index_expr.evaluate(env_vec)
                offset += (np.asarray(idx, dtype=np.int64) - 1) * stride
            addrs = layout.base + offset * layout.element_size
            lo = int(addrs.min())
            hi = int(addrs.max())
            if lo < layout.base or hi >= layout.end:
                if kind == KIND_PREFETCH:
                    bad = (addrs < layout.base) | (addrs >= layout.end)
                    if drop_mask is None:
                        drop_mask = np.zeros((len(schedule.accesses), count), dtype=bool)
                    drop_mask[pos] = bad
                    addrs = np.clip(addrs, layout.base, layout.end - 1)
                else:
                    raise ExecutionError(
                        f"{ref} out of bounds in loop {loop.var} "
                        f"(addresses [{lo}, {hi}] outside "
                        f"[{layout.base}, {layout.end}))"
                    )
            columns.append(addrs)
            kinds[pos] = kind
        # Interleave in statement order: iteration-major, access-minor.
        matrix = np.stack(columns, axis=1)
        flat_addrs = matrix.reshape(-1)
        flat_kinds = np.tile(kinds, count)
        if drop_mask is not None:
            keep = ~drop_mask.T.reshape(-1)
            dropped = int((~keep).sum())
            counters.dropped_prefetches += dropped
            self.memsys.advance(dropped * cycles_per_access)
            flat_addrs = flat_addrs[keep]
            flat_kinds = flat_kinds[keep]
        self.memsys.access_vector(flat_addrs, flat_kinds, cycles_per_access)

    def _schedule_for(self, loop: Loop) -> _Schedule:
        return self._memo("schedule", loop, lambda: self._compile_schedule(loop))

    def _compile_schedule(self, loop: Loop) -> _Schedule:
        accesses: List[Tuple[ArrayRef, int]] = []
        flops = 0
        loads = stores = prefetches = moves = 0
        scalars = set(self.kernel.consts)
        for stmt in loop.body:
            if isinstance(stmt, Prefetch):
                accesses.append((stmt.ref, KIND_PREFETCH))
                prefetches += 1
                continue
            flops += stmt.value.flops()
            stmt_reads = list(stmt.value.reads())
            for ref in stmt_reads:
                accesses.append((ref, KIND_LOAD))
                loads += 1
            scalars.update(scalars_read(stmt.value))
            if isinstance(stmt.target, ArrayRef):
                accesses.append((stmt.target, KIND_STORE))
                stores += 1
            else:
                scalars.add(stmt.target)
                if not stmt_reads and stmt.value.flops() == 0:
                    moves += 1
        return _Schedule(
            accesses=accesses,
            flops_per_iter=flops,
            loads_per_iter=loads,
            stores_per_iter=stores,
            prefetches_per_iter=prefetches,
            scalar_moves_per_iter=moves,
            live_scalars=len(scalars),
        )

    # -- cross-loop batching: compile --------------------------------------
    def _program_for(self, loop: Loop) -> Optional[_FusedLoop]:
        return self._memo("program", loop, lambda: self._compile_fused(loop, 1, frozenset()))

    def _compile_fused(
        self, loop: Loop, depth: int, ancestors: frozenset
    ) -> Optional[_FusedLoop]:
        # Only *ancestor* vars conflict (a nested redefinition would
        # shadow the outer value in the fused environment); sibling loops
        # reusing a var — jacobi's two sweeps — fuse fine.
        if depth > _MAX_FUSE_DEPTH or loop.var in ancestors:
            return None
        inner = ancestors | {loop.var}
        if all(isinstance(child, Statement) for child in loop.body):
            schedule = self._compile_schedule(loop)
            mem_ops = (
                schedule.loads_per_iter
                + schedule.stores_per_iter
                + schedule.prefetches_per_iter
            )
            issue = iteration_issue_cycles(
                self.machine,
                schedule.flops_per_iter,
                mem_ops,
                schedule.scalar_moves_per_iter,
                schedule.live_scalars,
            )
            if mem_ops:
                cpa = issue / mem_ops
                entries = [_Entry(ref, kind, cpa) for ref, kind in schedule.accesses]
            else:
                entries = [_Entry(None, _PHANTOM, issue)]
            if not _affine(entries):
                return None
            return _FusedLoop(
                loop.var, loop.lower, loop.upper, loop.step,
                True, entries, schedule, None, 0.0, len(entries),
            )
        slots: List[Union[_StmtSlot, _FusedLoop]] = []
        fixed = 1  # the per-iteration overhead phantom
        stmts: List[Statement] = []
        for child in loop.body:
            if isinstance(child, Statement):
                stmts.append(child)
                continue
            if stmts:
                slot = self._compile_stmt_slot(stmts)
                if slot is None:
                    return None
                slots.append(slot)
                fixed += len(slot.entries)
                stmts = []
            sub = self._compile_fused(child, depth + 1, inner)
            if sub is None:
                return None
            slots.append(sub)
        if stmts:
            slot = self._compile_stmt_slot(stmts)
            if slot is None:
                return None
            slots.append(slot)
            fixed += len(slot.entries)
        return _FusedLoop(
            loop.var, loop.lower, loop.upper, loop.step,
            False, None, None, slots, self.machine.loop_overhead, fixed,
        )

    def _compile_stmt_slot(self, stmts: List[Statement]) -> Optional[_StmtSlot]:
        """Statement-path semantics as a stream pattern: each statement's
        issue cycles ride on its first access; access-free statements
        become phantoms (their advance folds into the next kept entry).
        None when an access is not affine."""
        entries: List[_Entry] = []
        flops = 0
        loads = stores = prefetches = moves = 0
        for stmt in stmts:
            if isinstance(stmt, Prefetch):
                entries.append(_Entry(stmt.ref, KIND_PREFETCH, 1.0))
                prefetches += 1
                continue
            stmt_flops = stmt.value.flops()
            flops += stmt_flops
            issue = max(stmt_flops / self.machine.flops_per_cycle, 0.0)
            reads = list(stmt.value.reads())
            if not reads and not isinstance(stmt.target, ArrayRef):
                moves += 1
                entries.append(_Entry(None, _PHANTOM, max(issue, 0.5)))
                continue
            carry = issue
            for ref in reads:
                entries.append(_Entry(ref, KIND_LOAD, carry + 1.0))
                carry = 0.0
                loads += 1
            if isinstance(stmt.target, ArrayRef):
                entries.append(_Entry(stmt.target, KIND_STORE, carry + 1.0))
                stores += 1
        if not _affine(entries):
            return None
        return _StmtSlot(entries, flops, loads, stores, prefetches, moves)

    # -- cross-loop batching: run ------------------------------------------
    def _estimate_iter(self, node: _FusedLoop, env: Dict[str, int]) -> int:
        """Approximate stream entries of ONE iteration of ``node`` (child
        bounds evaluated at the first iteration).  Heuristic — used only
        to size slabs and to refuse fusing a level whose single iteration
        would not fit one; never affects simulation results."""
        if node.leaf:
            return node.size
        e = dict(env)
        e[node.var] = int(node.lower.evaluate(env))
        total = node.size
        for slot in node.slots:
            if isinstance(slot, _FusedLoop):
                lo = int(slot.lower.evaluate(e))
                up = int(slot.upper.evaluate(e))
                trip = _trip_count(lo, up, _step(slot.step, e))
                total += trip * self._estimate_iter(slot, e)
        return total

    def _run_fused(self, program: _FusedLoop, env: Dict[str, int]) -> None:
        lower = int(program.lower.evaluate(env))
        upper = int(program.upper.evaluate(env))
        step = _step(program.step, env)
        count = _trip_count(lower, upper, step)
        if count <= 0:
            return
        all_values = np.arange(lower, lower + count * step, step, dtype=np.int64)
        # Domains are materialized slab-by-slab over root iterations so a
        # deep untiled nest never holds its whole iteration space at once.
        # Leaf programs have exact per-iteration size; non-leaf ones start
        # from the analytic estimate and then reuse the measured one
        # (kept for the program across this run's calls).
        budget = 4 * _CHUNK_ENTRIES
        start = 0
        while start < count:
            est = program.size if program.leaf else self._est.get(id(program))
            if est is None:
                take = 1
            else:
                take = min(count - start, max(1, budget // max(est, 1)))
            values = all_values[start : start + take]
            dom = _Domain()
            dom.values = values
            dom.env = {program.var: values}
            dom.total = take
            sizes = np.full(take, program.size, dtype=np.int64)
            if not program.leaf:
                for si, slot in enumerate(program.slots):
                    if isinstance(slot, _FusedLoop):
                        child = self._build_domain(slot, dom, env)
                        dom.children[si] = child
                        sizes += child.contrib
            dom.inst_size = sizes
            self._tally_fused(program, dom)
            cum = np.cumsum(sizes)
            total_entries = int(cum[-1])
            self._est[id(program)] = max(1, total_entries // take)
            lo = 0
            consumed = 0
            while lo < take:
                if total_entries - consumed <= _CHUNK_ENTRIES:
                    hi = take
                else:
                    hi = int(
                        np.searchsorted(cum, consumed + _CHUNK_ENTRIES, side="right")
                    )
                    hi = min(max(hi, lo + 1), take)
                chunk_sizes = sizes[lo:hi]
                stream = _Stream(int(cum[hi - 1] - consumed))
                starts = np.cumsum(chunk_sizes) - chunk_sizes
                self._emit_node(program, dom, lo, hi, starts, stream, env)
                self._feed(stream)
                consumed = int(cum[hi - 1])
                lo = hi
            start += take

    def _build_domain(
        self, node: _FusedLoop, parent: _Domain, env: Dict[str, int]
    ) -> _Domain:
        """Flatten one nested loop over all of its parent's instances."""
        P = parent.total
        eval_env: Dict[str, object] = dict(env)
        eval_env.update(parent.env)
        lo = np.broadcast_to(
            np.asarray(node.lower.evaluate(eval_env), dtype=np.int64), (P,)
        )
        up = np.broadcast_to(
            np.asarray(node.upper.evaluate(eval_env), dtype=np.int64), (P,)
        )
        step = _step(node.step, env)
        if step > 0:
            counts = np.where(up >= lo, (up - lo) // step + 1, 0).astype(np.int64)
        else:
            counts = np.where(lo >= up, (lo - up) // (-step) + 1, 0).astype(np.int64)
        total = int(counts.sum())
        parent_idx = np.repeat(np.arange(P, dtype=np.int64), counts)
        seg_start = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(seg_start, counts)
        values = np.repeat(lo, counts) + step * within

        dom = _Domain()
        dom.values = values
        dom.counts = counts
        dom.parent_idx = parent_idx
        dom.total = total
        dom.env = {name: vec[parent_idx] for name, vec in parent.env.items()}
        dom.env[node.var] = values

        if node.leaf:
            dom.contrib = counts * node.size
            return dom
        sizes = np.full(total, node.size, dtype=np.int64)
        for si, slot in enumerate(node.slots):
            if isinstance(slot, _FusedLoop):
                child = self._build_domain(slot, dom, env)
                dom.children[si] = child
                sizes += child.contrib
        dom.inst_size = sizes
        contrib = np.bincount(parent_idx, weights=sizes, minlength=P)
        dom.contrib = contrib.astype(np.int64)
        return dom

    def _tally_fused(self, node: _FusedLoop, dom: _Domain) -> None:
        counters = self.counters
        counters.loop_iterations += dom.total
        if node.leaf:
            s = node.schedule
            counters.flops += s.flops_per_iter * dom.total
            counters.loads += s.loads_per_iter * dom.total
            counters.stores += s.stores_per_iter * dom.total
            counters.prefetches += s.prefetches_per_iter * dom.total
            counters.scalar_moves += s.scalar_moves_per_iter * dom.total
            return
        for si, slot in enumerate(node.slots):
            if isinstance(slot, _FusedLoop):
                self._tally_fused(slot, dom.children[si])
            else:
                counters.flops += slot.flops * dom.total
                counters.loads += slot.loads * dom.total
                counters.stores += slot.stores * dom.total
                counters.prefetches += slot.prefetches * dom.total
                counters.scalar_moves += slot.scalar_moves * dom.total

    def _emit_node(
        self,
        node: _FusedLoop,
        dom: _Domain,
        lo: int,
        hi: int,
        starts: np.ndarray,
        stream: _Stream,
        env: Dict[str, int],
    ) -> None:
        """Scatter instances ``[lo, hi)`` of ``node`` into the stream at
        the given per-instance start offsets."""
        if len(starts) == 0:
            return
        if node.leaf:
            env_chunk: Dict[str, object] = dict(env)
            for name, vec in dom.env.items():
                env_chunk[name] = vec[lo:hi]
            self._emit_entries(node, starts, env_chunk, stream, node.var)
            return
        stream.cpa[starts] = node.overhead  # per-iteration phantom
        running = starts + 1
        env_chunk = None
        for si, slot in enumerate(node.slots):
            if isinstance(slot, _StmtSlot):
                if env_chunk is None:
                    env_chunk = dict(env)
                    for name, vec in dom.env.items():
                        env_chunk[name] = vec[lo:hi]
                self._emit_entries(slot, running, env_chunk, stream, node.var)
                running = running + len(slot.entries)
                continue
            child = dom.children[si]
            c0, c1 = np.searchsorted(child.parent_idx, (lo, hi))
            c0, c1 = int(c0), int(c1)
            child_counts = child.counts[lo:hi]
            tot = c1 - c0
            if tot:
                if slot.leaf:
                    seg = np.cumsum(child_counts) - child_counts
                    within = np.arange(tot, dtype=np.int64) - np.repeat(seg, child_counts)
                    child_starts = np.repeat(running, child_counts) + within * slot.size
                else:
                    child_sizes = child.inst_size[c0:c1]
                    cs = np.cumsum(child_sizes) - child_sizes
                    first = np.minimum(np.cumsum(child_counts) - child_counts, tot - 1)
                    local = cs - np.repeat(cs[first], child_counts)
                    child_starts = np.repeat(running, child_counts) + local
                self._emit_node(slot, child, c0, c1, child_starts, stream, env)
            if slot.leaf:
                running = running + child_counts * slot.size
            else:
                running = running + child.contrib[lo:hi]

    def _emit_entries(
        self,
        owner: Union[_FusedLoop, _StmtSlot],
        starts: np.ndarray,
        env_vec: Dict[str, object],
        stream: _Stream,
        loop_var: str,
    ) -> None:
        """Scatter one entry list's instances into the stream, through
        the owner's emit plan."""
        plan = owner.plan
        if plan is None:
            plan = owner.plan = _plan_entries(owner.entries)
        for off, cpa in plan.phantoms:
            stream.cpa[starts + off if off else starts] = cpa
        if not len(plan.offs):
            return
        bound = self._bound.get(id(plan))
        if bound is None:
            # the entry holds the plan: a plan another thread replaced on
            # its owner is otherwise freed after this call, and a later
            # plan at its address would read this binding
            bound = self._bound[id(plan)] = (plan, *_bind_plan(plan, self.layout))
        _, consts, coeffs, row_lo_limit, row_hi_limit = bound
        # addr[e, i] = consts[e] + sum_v coeffs[e, v] * var_v[i]; loop
        # variables are per-instance vectors, outer bindings fold into
        # the constant column.
        base = consts
        vec_cols = []
        vec_vals = []
        for j, name in enumerate(plan.names):
            val = env_vec[name]
            if isinstance(val, np.ndarray):
                vec_cols.append(j)
                vec_vals.append(val)
            else:
                base = base + coeffs[:, j] * int(val)
        if vec_vals:
            addrs = coeffs[:, vec_cols] @ np.stack(vec_vals)
            addrs += base[:, None]
        else:
            addrs = np.broadcast_to(base[:, None], (len(base), len(starts)))
        dest = plan.offs[:, None] + starts[None, :]
        stream.addr[dest] = addrs
        stream.kind[dest] = plan.kinds
        stream.cpa[dest] = plan.cpas
        stream.keep[dest] = True
        row_lo = addrs.min(axis=1)
        row_hi = addrs.max(axis=1)
        bad_rows = np.nonzero((row_lo < row_lo_limit) | (row_hi >= row_hi_limit))[0]
        if not len(bad_rows):
            return
        counters = self.counters
        for r in bad_rows.tolist():
            entry = plan.entries[plan.sim_index[r]]
            if entry.kind != KIND_PREFETCH:
                raise ExecutionError(
                    f"{entry.ref} out of bounds in fused loop "
                    f"{loop_var} (addresses [{int(row_lo[r])}, "
                    f"{int(row_hi[r])}] outside [{int(row_lo_limit[r])}, "
                    f"{int(row_hi_limit[r])}))"
                )
            row = addrs[r]
            bad = (row < row_lo_limit[r]) | (row >= row_hi_limit[r])
            counters.dropped_prefetches += int(bad.sum())
            stream.keep[dest[r][bad]] = False

    def _feed(self, stream: _Stream) -> None:
        """Hand one assembled chunk to the memory system.

        Phantom and dropped entries fold their cycles into the next kept
        access (running-sum difference), so the cumulative issue time at
        every kept access is exactly the reference's; charges trailing
        the last access are advanced at the end."""
        cum = np.cumsum(stream.cpa)
        total = float(cum[-1])
        kept = np.nonzero(stream.keep)[0]
        if len(kept) == 0:
            if total:
                self.memsys.advance(total)
            return
        kept_cpa = np.empty(len(kept), dtype=np.float64)
        kept_cpa[0] = cum[kept[0]]
        np.subtract(cum[kept[1:]], cum[kept[:-1]], out=kept_cpa[1:])
        self.memsys.access_vector(stream.addr[kept], stream.kind[kept], kept_cpa)
        residual = total - float(cum[kept[-1]])
        if residual:
            self.memsys.advance(residual)

    # ------------------------------------------------------------------
    def _address(self, ref: ArrayRef, env: Mapping[str, int]) -> int:
        layout = self.layout[ref.array]
        indices = tuple(int(ix.evaluate(env)) for ix in ref.indices)
        return layout.base + layout.linear_offset(indices) * layout.element_size

    def _checked_address(self, ref: ArrayRef, env: Mapping[str, int]) -> int:
        layout = self.layout[ref.array]
        addr = self._address(ref, env)
        if not layout.base <= addr < layout.end:
            raise ExecutionError(f"{ref} out of bounds (env {dict(env)})")
        return addr

