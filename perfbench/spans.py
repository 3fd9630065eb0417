"""Traced mode: spans recorded by the benchmark's own wrappers.

:func:`install` wraps the public functions of each layer.  A function is
patched in every loaded ``repro`` module that binds it, so the call a
caller actually makes (``repro.eval.engine.execute``,
``repro.analysis.surrogate.estimate_misses``, ...) is the one timed.  A
span records its name, start, end and parent id; spans are kept in memory
and written out once the pass ends (:meth:`Recorder.dump`).

Parents follow the calling thread's stack.  A span opened on a thread
with an empty stack (the serve daemon's event loop or search thread)
takes the main thread's innermost open span as its parent, so a served
search nests under the client call that waits for it.

:func:`layer_table` turns spans into exclusive ("self") times by sweeping
the timeline: each instant belongs to the deepest open span (the most
recently opened on ties), and instants no span covers are ``other``.
Self times plus ``other`` therefore sum to the wall by construction, even
with two threads running.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.monotonic

#: (span name, module, attribute) — ``Class.method`` attributes patch the
#: class; plain functions patch every repro module binding them.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("derive", "repro.core.derive", "derive_variants"),
    ("model.score", "repro.analysis.surrogate", "Surrogate.score"),
    ("model.score", "repro.analysis.surrogate", "Surrogate.judge"),
    ("model.miss", "repro.analysis.missmodel", "estimate_misses"),
    ("learned.train", "repro.analysis.learned", "train_ranker"),
    ("learned.rank", "repro.analysis.learned", "LearnedRanker.predict"),
    ("learned.rank", "repro.analysis.learned", "LearnedRanker.memoized"),
    ("learned.rank", "repro.analysis.learned", "LearnedRanker.observe"),
    ("build", "repro.core.variants", "instantiate"),
    ("build", "repro.core.variants", "instantiate_base"),
    ("build", "repro.core.variants", "apply_prefetch"),
    ("build", "repro.transforms.padding", "pad_arrays"),
    ("sim", "repro.sim.executor", "execute"),
    ("sim", "repro.sim.executor", "execute_batch"),
    ("eval", "repro.eval.engine", "EvalEngine.evaluate"),
    ("eval", "repro.eval.engine", "EvalEngine.evaluate_batch"),
    ("eval", "repro.eval.engine", "EvalEngine.resolve"),
    ("search", "repro.core.search", "GuidedSearch.run"),
    ("atlas.tune", "repro.baselines.atlas", "MiniAtlas.tune"),
    ("baselines.measure", "repro.baselines.atlas", "MiniAtlas.measure"),
    ("baselines.measure", "repro.baselines.native", "NativeCompiler.measure"),
    ("baselines.measure", "repro.baselines.blas", "VendorBlas.measure"),
    ("baselines.measure", "repro.core.eco", "TunedKernel.measure"),
    ("serve.submit", "repro.serve.client", "ServeClient.submit"),
    ("serve.submit", "repro.serve.client", "ServeClient.result"),
    ("store.get", "repro.serve.store", "RequestStore.get"),
    ("store.put", "repro.serve.store", "RequestStore.put"),
    ("store.nearest", "repro.serve.store", "RequestStore.nearest"),
)

#: search stages, timed around ``EvalEngine.stage`` (a context manager)
STAGES = ("screen", "tiling", "prefetch", "padding")


class Recorder:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.accesses: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.main_thread().ident
        #: wrappers record only while set (the output check that follows
        #: a pass calls the same functions, untimed)
        self.active = True

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def open(self, start: Optional[float] = None) -> Tuple[int, Optional[int], float]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, now() if start is None else start

    def close(self, name: str, opened: Tuple[int, Optional[int], float]) -> None:
        sid, parent, start = opened
        self._stacks[threading.get_ident()].pop()
        self.spans.append((sid, parent, name, start, now()))

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None):
        opened = self.open(start)
        try:
            yield opened[0]
        finally:
            self.close(name, opened)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end}) + "\n")


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        opened = recorder.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(name, opened)
        if name == "sim":
            counters = result if isinstance(result, list) else [result]
            recorder.accesses[opened[0]] = sum(
                c.memory_accesses for c in counters)
        return result

    return wrapper


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against the
    bare no-op (median over ``rounds``).  Times the number of spans a pass
    recorded, this is the pass's tracing overhead; unlike the difference
    of a traced and an untraced wall, it is not swamped by the host's
    speed drift."""
    def noop() -> None:
        return None

    recorder = Recorder()
    wrapped = _wrap(recorder, "calibrate", noop)
    costs = []
    for _ in range(rounds):
        start = now()
        for _ in range(calls):
            noop()
        bare = now() - start
        start = now()
        for _ in range(calls):
            wrapped()
        costs.append((now() - start - bare) / calls)
        recorder.spans.clear()
    return statistics.median(costs)


def install(recorder: Recorder) -> None:
    """Patch every layer in :data:`LAYERS` and the search stages."""
    import importlib

    for _, module, _ in LAYERS:
        importlib.import_module(module)
    # modules that bind layer functions at import time
    for extra in ("repro.serve.daemon", "repro.experiments.fig4",
                  "repro.experiments.fig5", "repro.experiments.runner"):
        importlib.import_module(extra)
    loaded = [m for n, m in list(sys.modules.items())
              if (n == "repro" or n.startswith("repro.")) and m is not None]
    for name, module, attr in LAYERS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(recorder, name, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(recorder, name, original)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    from repro.eval.engine import EvalEngine

    original_stage = EvalEngine.stage

    @contextlib.contextmanager
    def stage(self, stage_name):
        with recorder.span(f"search.stage.{stage_name}"):
            with original_stage(self, stage_name) as stats:
                yield stats

    EvalEngine.stage = stage


def layer_table(spans, wall_start: float, wall_end: float) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and inclusive ``s`` (outermost spans of
    that name only, so recursion is not double counted) and exclusive
    ``self_s``; plus an ``other`` row so that self times sum to the wall."""
    by_id = {s[0]: s for s in spans}
    depth: Dict[int, int] = {}

    def depth_of(sid: int) -> int:
        if sid not in depth:
            parent = by_id[sid][1]
            depth[sid] = depth_of(parent) + 1 if parent in by_id else 0
        return depth[sid]

    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span[2], {"calls": 0, "s": 0.0, "self_s": 0.0})
        if not _nested(by_id, span):
            row["calls"] += 1
            row["s"] += span[4] - span[3]

    events = []
    for sid, _, _, start, end in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    heap: List[Tuple[int, float, int]] = []
    closed = set()
    cursor = wall_start
    other = 0.0
    for at, kind, sid in events:
        at = min(max(at, wall_start), wall_end)
        while heap and heap[0][2] in closed:
            heapq.heappop(heap)
        if at > cursor:
            if heap:
                table[by_id[heap[0][2]][2]]["self_s"] += at - cursor
            else:
                other += at - cursor
            cursor = at
        if kind:
            heapq.heappush(heap, (-depth_of(sid), -by_id[sid][3], sid))
        else:
            closed.add(sid)
    if wall_end > cursor:
        other += wall_end - cursor
    table["other"] = {"calls": 0, "s": other, "self_s": other}
    return table


def _nested(by_id, span) -> bool:
    """Whether a span runs inside another span of the same name."""
    ancestor = span[1]
    while ancestor in by_id:
        if by_id[ancestor][2] == span[2]:
            return True
        ancestor = by_id[ancestor][1]
    return False


def sim_accesses(recorder: Recorder) -> int:
    """Memory accesses simulated by outermost ``sim`` spans."""
    by_id = {s[0]: s for s in recorder.spans}
    return sum(count for sid, count in recorder.accesses.items()
               if not _nested(by_id, by_id[sid]))


def merge(tables: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum several layer tables (the children of one pass)."""
    out: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def format_table(table: Dict[str, Dict[str, Any]], wall: float) -> str:
    rows = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    lines = [f"  {'layer':<24}{'calls':>9}{'incl s':>10}{'self s':>10}{'self %':>8}"]
    total = 0.0
    for name, row in rows:
        total += row["self_s"]
        share = 100.0 * row["self_s"] / wall if wall else 0.0
        lines.append(f"  {name:<24}{int(row['calls']):>9}{row['s']:>10.3f}"
                     f"{row['self_s']:>10.3f}{share:>7.1f}%")
    lines.append(f"  {'sum (self + other)':<24}{'':>9}{'':>10}{total:>10.3f}"
                 f"  traced wall {wall:.3f} s")
    return "\n".join(lines)
