"""One workload pass in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/child.py '<json payload>'``.  The payload names
the workload, its generated inputs, ``run.py``'s spawn time ``t0``
(``time.monotonic`` is system-wide on Linux, so the child can measure
interpreter start → ready), whether to trace, and whether to stop once
set up (a set-up-only interpreter).  The child prints one JSON line: timings, the
answers it got, and the output-check verdicts.

Only public entry points of the program are called: ``EcoOptimizer``,
``runner``/``run_fig4``/``run_fig5``, ``daemon_thread``/``ServeClient``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

now = time.monotonic
HERE = Path(__file__).resolve().parent

#: problem size at which each winner is interpreted against the
#: untransformed kernel (small: the IR interpreter is pure Python)
ORACLE_N = 7


def winner_dict(result) -> Dict[str, Any]:
    """A search result in the serve protocol's winner shape."""
    return {
        "variant": result.variant.name,
        "values": {k: int(v) for k, v in sorted(result.values.items())},
        "prefetch": sorted([s.array, s.loop, int(d)]
                           for s, d in result.prefetch.items()),
        "pads": {k: int(v) for k, v in sorted(result.pads.items())},
        "mflops": result.mflops,
    }


def oracle(kernel_name: str, machine_name: str, winner: Dict[str, Any]) -> Optional[str]:
    """Rebuild a winner from its recipe and interpret it at a small size;
    ``None`` when it computes what the untransformed kernel computes."""
    import numpy as np

    from repro.codegen.interp import allocate_arrays, run_kernel
    from repro.core.derive import derive_variants
    from repro.core.variants import PrefetchSite, instantiate
    from repro.kernels import get_kernel
    from repro.machines import get_machine
    from repro.transforms.padding import pad_arrays

    kernel = get_kernel(kernel_name)
    machine = get_machine(machine_name)
    # 12 is both EcoOptimizer's and the serve protocol's max_variants
    variants = {v.name: v for v in derive_variants(kernel, machine, 12)}
    variant = variants.get(winner["variant"])
    if variant is None:
        return f"variant {winner['variant']} not derived"
    prefetch = {PrefetchSite(a, l): int(d) for a, l, d in winner["prefetch"]}
    built = instantiate(kernel, variant, winner["values"], machine, prefetch)
    pads = winner.get("pads") or {}
    if pads:
        built = pad_arrays(built, pads)
    params = {p: (ORACLE_N if p == "N" else 3) for p in kernel.params}
    consts = {c: 0.5 for c in kernel.consts}
    arrays = allocate_arrays(kernel, params, seed=1)
    want = run_kernel(kernel, params, arrays, consts)
    embedded = {}
    for name, data in arrays.items():
        shape = tuple(int(d.evaluate(params)) for d in built.array(name).shape)
        wide = np.zeros(shape, order="F")
        wide[tuple(slice(0, n) for n in data.shape)] = data
        embedded[name] = wide
    got = run_kernel(built, params, embedded, consts)
    for decl in kernel.arrays:
        if decl.temp:
            continue
        ref = want[decl.name]
        out = got[decl.name][tuple(slice(0, n) for n in ref.shape)]
        if not np.allclose(out, ref, rtol=1e-9, atol=1e-12):
            return f"array {decl.name} differs from the untransformed kernel"
    return None


def checked(kernel: str, machine: str, winner: Dict[str, Any]) -> Optional[str]:
    try:
        return oracle(kernel, machine, winner)
    except Exception as error:  # a winner that cannot be rebuilt is wrong
        return f"{type(error).__name__}: {error}"


# -- tune-default: one `repro tune` per interpreter -------------------------

def tune(payload, clock):
    from repro.core import EcoOptimizer, SearchConfig
    from repro.eval import EvalEngine
    from repro.kernels import get_kernel
    from repro.machines import get_machine
    from workloads import problem_for

    op = payload["op"]
    kernel = get_kernel(op["kernel"])
    machine = get_machine(op["machine"])
    engine = EvalEngine(machine, jobs=1)
    optimizer = EcoOptimizer(kernel, machine, SearchConfig(prescreen=True),
                             engine=engine)
    optimizer.variants  # phase 1
    if clock.ready():
        return {}
    with clock.segment("search"):
        tuned = optimizer.optimize(problem_for(op["kernel"], op["size"]))
    clock.end()
    engine.close()
    return {
        "answers": [dict(op, winner=winner_dict(tuned.result),
                         sims=tuned.result.stats["simulations"])],
        "stats": [tuned.result.stats],
    }


# -- paper-sweep: Figure 4 + Figure 5 on both machines ----------------------

def sweep(payload, clock):
    from repro.core import EcoOptimizer
    from repro.experiments import runner
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import run_fig5
    from repro.kernels import get_kernel
    from repro.machines import get_machine

    plan = payload["plan"]
    config = ExperimentConfig(
        mm_sizes=tuple(plan["mm_sizes"]),
        mm_tuning_size=plan["mm_tuning_size"],
        jacobi_sizes=tuple(plan["jacobi_sizes"]),
        jacobi_tuning_size=plan["jacobi_tuning_size"],
        table1_mm_size=96,
        table1_jacobi_size=56,
    )
    runner.configure(jobs=1)
    for machine in plan["machines"]:
        runner.engine_for(machine)
        for name in ("mm", "jacobi"):
            EcoOptimizer(get_kernel(name), get_machine(machine)).variants
    if clock.ready():
        return {}
    tuned = {}
    for machine in plan["machines"]:
        with clock.segment("search"):
            tuned[("mm", machine)] = runner.tuned_eco(
                "mm", machine, config.mm_tuning_size)
        with clock.segment("search"):
            runner.tuned_atlas(machine, config.mm_tuning_size)
        with clock.segment("search"):
            tuned[("jacobi", machine)] = runner.tuned_eco(
                "jacobi", machine, config.jacobi_tuning_size)
    figures = {}
    for machine in plan["machines"]:
        with clock.segment("measure"):
            figures[("mm", machine)] = run_fig4(machine, config)
        with clock.segment("measure"):
            figures[("jacobi", machine)] = run_fig5(machine, config)
    clock.end()
    answers = []
    measured = 0
    sizes = {"mm": config.mm_tuning_size, "jacobi": config.jacobi_tuning_size}
    for (name, machine), result in figures.items():
        tk = tuned[(name, machine)]
        answers.append({
            "kernel": name, "machine": machine, "size": sizes[name],
            "winner": winner_dict(tk.result),
            "sims": tk.result.stats["simulations"],
            "series": [[n, v] for n, v in
                       zip(result["sizes"], result["series"]["ECO"])],
        })
        measured += sum(len(v) for v in result["series"].values())
    return {
        "measured": measured,
        "answers": answers,
        "stats": [runner.engine_for(m).stats.as_dict() for m in plan["machines"]],
    }


# -- serve-mix: a daemon thread and one closed-loop client ------------------

def serve_one(client, op, clock, out) -> None:
    """Submit one operation of the stream and record its answer."""
    from workloads import request_id

    request = {"kernel": op["kernel"], "machine": op["machine"],
               "size": op["size"]}
    if op["kind"] == "repeat":
        start = now()
        reply = client.submit(request, wait=True)
        out["hits"].append(now() - start)
        if not reply.get("cached"):
            out["errors"].append(f"repeat of {request_id(op)} "
                                 f"was not a store hit")
        return
    with clock.segment("search"):
        if op["kind"] == "dup":
            request["warm_start"] = False
            first = client.submit(request)
            second = client.submit(request)
            reply = client.result(first["key"], wait=True)
        else:
            reply = client.submit(request, wait=True)
    if op["kind"] == "dup" and not second.get("dedup"):
        out["errors"].append(f"duplicate {request_id(op)} did not coalesce")
    out["keys"][reply["key"]] = op["size"]
    out["answers"].append(dict(op, winner=reply["winner"],
                               sims=reply["served"]["sims"],
                               donor=reply["served"]["donor"]))
    out["stats"].append(reply["stats"])


def serve(payload, clock):
    from repro.serve.client import ServeClient
    from repro.serve.daemon import daemon_thread
    from workloads import request_id

    os.chdir(payload["workdir"])
    out: Dict[str, Any] = {"hits": [], "answers": [], "stats": [],
                           "keys": {}, "errors": []}
    with daemon_thread("s.sock", "store", jobs=1):
        client = ServeClient("s.sock")
        if clock.ready():
            return {}
        for op in payload["stream"]:
            try:
                serve_one(client, op, clock, out)
            except RuntimeError as error:  # the daemon answered with an error
                out["errors"].append(f"{request_id(op)}: {error}")
        out["counters"] = client.stats()["counters"]
        clock.end()
    return out


BODIES = {"tune-default": tune, "paper-sweep": sweep, "serve-mix": serve}


# -- timing -----------------------------------------------------------------

#: fixed work of one speed probe (~0.1 s on a 2-CPU x86_64 VM)
PROBE_LOOPS = 350_000
PROBE_ARRAY = 20_000
PROBE_ROUNDS = 28


def probe(loops: int = PROBE_LOOPS, rounds: int = PROBE_ROUNDS) -> float:
    """Time fixed work shaped like the program's: an interpreted Python
    loop (search, model, builds) and integer numpy sorting and searching
    (the simulator's vectorized passes).  The program slows down with the
    host as this does."""
    import numpy as np

    start = now()
    x = 0
    for j in range(loops):
        x += j * j % 7
    keys = np.arange(PROBE_ARRAY, dtype=np.int64)
    for j in range(rounds):
        lines = np.unique((keys * 7919 + j) % 4093)
        np.searchsorted(lines, keys % 4093)
    return now() - start


def other_threads_cpu() -> float:
    """CPU seconds this process has spent outside the calling thread."""
    return time.process_time() - time.thread_time()


#: a probe waits until the process's other threads (the serve daemon's)
#: have used under 10% of a 5 ms window, for at most 5 s
SETTLE_WINDOW_S = 0.005
SETTLE_MAX_S = 5.0
#: other threads' CPU during a probe, as a share of it, beyond which the
#: probe is contaminated
CONTAMINATED = 0.02


class Clock:
    """A pass's timestamps, timed segments and speed probes.

    The CPU speed a shared host gives one process drifts: on a 2-CPU VM a
    fixed loop's time swung by 40% within a minute.  So set-up and every
    timed segment are followed by a speed probe, and ``run.py`` rescales
    raw times to the probe's reference speed (``run.normalized``).

    A probe must not overlap the program's own work, or that work would
    be dropped from the wall and would slow the probe that rescales its
    neighbours.  So a probe first waits until the process's other
    threads are idle (the wait counts as wall), and a probe during which
    they still used the CPU is *contaminated*: it is recorded as
    ``None``, its time stays in the wall, and ``run.py`` rescales no
    segment by it.  Clean probe time is excluded from every wall; in a
    traced pass it is recorded as a ``probe`` span.
    """

    def __init__(self, t0: float, setup_only: bool, recorder=None,
                 setup_span=None) -> None:
        self.t0 = t0
        self.times: Dict[str, float] = {}
        self.setup_only = setup_only
        self.recorder = recorder
        self.setup_span = setup_span
        self.probes: List[Optional[float]] = []
        self.probe_s = 0.0
        self.segments: List[Dict[str, Any]] = []

    def settle(self) -> float:
        """Wait until the other threads are idle; the idle window's start."""
        deadline = now() + SETTLE_MAX_S
        while True:
            start, busy = now(), other_threads_cpu()
            time.sleep(SETTLE_WINDOW_S)
            if (other_threads_cpu() - busy < 0.1 * SETTLE_WINDOW_S
                    or now() > deadline):
                return start

    def probe(self) -> None:
        start = self.settle()
        busy = other_threads_cpu()
        if not self.probes:
            # the first numpy calls in a process pay one-time costs that
            # would inflate the first probe by 10-40%
            probe(PROBE_LOOPS // 20, 2)
        reading = probe()
        if other_threads_cpu() - busy > CONTAMINATED * reading:
            self.probes.append(None)
            return
        self.probes.append(reading)
        self.probe_s += now() - start
        if self.recorder is not None:
            self.recorder.close("probe", self.recorder.open(start))

    def ready(self) -> bool:
        """Set-up is done; true for a set-up-only interpreter."""
        self.times["ready"] = now()
        if self.recorder is not None:
            self.recorder.close("setup", self.setup_span)
        if self.setup_only:
            return True
        self.probe()
        return False

    @contextlib.contextmanager
    def segment(self, label: str):
        """Time a block; segment ``i`` lies between probes ``i`` and ``i+1``."""
        start = now()
        yield
        self.segments.append({"label": label, "raw": now() - start})
        self.probe()

    def end(self) -> None:
        self.times["end"] = now()
        if self.recorder is not None:
            self.recorder.active = False

    def report(self) -> Dict[str, Any]:
        out = {"setup_s": self.times["ready"] - self.t0, "probes": self.probes}
        if "end" in self.times:
            out["wall_s"] = self.times["end"] - self.t0 - self.probe_s
            out["segments"] = self.segments
        return out


def main() -> None:
    payload = json.loads(sys.argv[1])
    sys.path.insert(0, str(HERE))
    t0 = payload["t0"]
    recorder = setup_span = None
    if payload.get("trace"):
        import spans

        recorder = spans.Recorder()
        setup_span = recorder.open(start=t0)
        spans.install(recorder)
    clock = Clock(t0, payload.get("setup_only", False), recorder=recorder,
                  setup_span=setup_span)
    result = BODIES[payload["workload"]](payload, clock)
    result.update(clock.report())
    if payload.get("setup_only"):
        print(json.dumps(result))
        return
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        layers = spans.layer_table(recorder.spans, t0, clock.times["end"])
        # clean probe time is not part of the wall (``Clock``)
        layers.pop("probe", None)
        result["layers"] = layers
        result["sim_accesses"] = spans.sim_accesses(recorder)
        result["trace_overhead_s"] = len(recorder.spans) * spans.span_cost()
        if payload.get("trace_path"):
            recorder.dump(payload["trace_path"])
    for answer in result["answers"]:
        answer["oracle"] = checked(answer["kernel"], answer["machine"],
                                   answer["winner"])
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
