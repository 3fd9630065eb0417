"""Tracked performance benchmark: ``repro bench`` times the guided
search (see :func:`run_search_bench` for its legs and methodology).

It writes ``BENCH_search.json`` and, with ``--check``, compares the
run against the committed floor in ``benchmarks/perf/search_floor.json``.
Both floor gates are wall clock of identical work, so they are
host-sensitive: they carry ``FLOOR_SLACK`` and only warn on a host
unlike the one the floor was measured on.  Deterministic properties of
the search (sims avoided, winners, the simulator's fast-path
accounting) are tier-1 tests, not bench gates.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "run_search_bench",
    "check_search_floor",
    "run",
    "FLOOR_SLACK",
]

#: a gate fails only below ``floor * (1 - FLOOR_SLACK)``
FLOOR_SLACK = 0.30

#: where the committed floor lives (relative to the repo root)
SEARCH_FLOOR_PATH = "benchmarks/perf/search_floor.json"


def _host_context() -> Dict[str, object]:
    """The host facts a floor's validity depends on.

    Wall-clock gates (parallel speedup) only transfer between hosts with
    comparable parallel hardware, so the bench payload and the floor file
    record the host they were measured on; ``--check`` downgrades
    host-sensitive failures to warnings when the hosts differ.
    """
    cpu_count = os.cpu_count() or 1
    return {
        "cpu_count": cpu_count,
        #: recorded explicitly: wall-clock parallel-speedup numbers from a
        #: single-core host are not evidence of anything
        "single_core": cpu_count == 1,
        "platform": platform.system().lower(),
        "python": platform.python_version(),
    }


def _golden_search_once(
    machine_name: str, jobs: int, prescreen: bool, ranker=None, tracer=None,
    size: int = 24,
) -> Tuple[float, object, Dict[str, object]]:
    """One golden mm search; returns (wall seconds, engine stats, winner)."""
    from repro.core import EcoOptimizer, SearchConfig
    from repro.eval import EvalEngine
    from repro.kernels import matmul
    from repro.machines import get_machine

    machine = get_machine(machine_name)
    engine = EvalEngine(machine, jobs=jobs, tracer=tracer)
    config = SearchConfig(
        full_search_variants=2, prescreen=prescreen, ranker=ranker,
    )
    start = time.perf_counter()
    tuned = EcoOptimizer(matmul(), machine, config, engine=engine).optimize(
        {"N": size}
    )
    wall = time.perf_counter() - start
    engine.close()
    result = tuned.result
    winner = {
        "variant": result.variant.name,
        "values": dict(sorted(result.values.items())),
        "prefetch": {
            f"{site.array}@{site.loop}": distance
            for site, distance in sorted(
                result.prefetch.items(), key=lambda kv: (kv[0].array, kv[0].loop)
            )
        },
        "pads": dict(sorted(result.pads.items())),
        "cycles": result.cycles,
    }
    return wall, engine.stats, winner


def _wall_pair(run_base, run_pruned, repeats: int):
    """Time a plain and a model-pruned search, interleaved ``repeats``
    times, each run from a cold base-IR cache (as a fresh ``repro tune``
    process starts).  Returns the wall-clock row (median walls and
    ``wall_speedup`` = base / pruned) and the last run's ``(stats,
    winner)`` of each side."""
    from repro.core.variants import clear_base_cache

    walls: Dict[str, List[float]] = {"base": [], "pruned": []}
    last: Dict[str, Tuple[object, Dict[str, object]]] = {}
    for _ in range(repeats):
        for side, run in (("base", run_base), ("pruned", run_pruned)):
            clear_base_cache()
            wall, stats, winner = run()
            walls[side].append(wall)
            last[side] = (stats, winner)
    base = statistics.median(walls["base"])
    pruned = statistics.median(walls["pruned"])
    row = {
        "wall_seconds": {"base": round(base, 3), "pruned": round(pruned, 3)},
        "wall_speedup": round(base / max(1e-9, pruned), 2),
    }
    return row, last["base"], last["pruned"]


def _learned_leg(machine_name: str, repeats: int) -> Dict[str, object]:
    """The learned-ranker pruning comparison on one machine model.

    Trains a ranker on the base run's *own* trace (in memory: Tracer →
    ``flatten_trace`` → ``train_ranker``) and reruns the identical
    search with the ranker on — the avoided fraction is then a pure
    property of the model and the skip policy, not of which corpus
    happened to be on disk.  Both runs are ``-j 1`` with the analytical
    prescreen off, the same baseline the prescreen legs use, so the two
    avoided fractions are directly comparable.  The walls are timed on
    untraced runs, apart from the traced training run.
    """
    from repro.analysis.learned import train_ranker
    from repro.obs import Tracer
    from repro.obs.corpus import flatten_trace

    tracer = Tracer(command="bench", suite="search", machine=machine_name)
    _golden_search_once(machine_name, 1, False, tracer=tracer)
    ranker = train_ranker(
        flatten_trace(tracer.events()), "mm", machine_name, seed=0
    )
    walls, (base_stats, base_winner), (ranked_stats, ranked_winner) = _wall_pair(
        lambda: _golden_search_once(machine_name, 1, False),
        lambda: _golden_search_once(machine_name, 1, False, ranker=ranker),
        repeats,
    )
    avoided = 1.0 - ranked_stats.simulations / max(1, base_stats.simulations)
    return {
        "sims_base": base_stats.simulations,
        "sims_ranked": ranked_stats.simulations,
        "ranker_skips": ranked_stats.ranker_skips,
        "model_fingerprint": ranker.fingerprint,
        "avoided_frac": round(avoided, 4),
        "winner_match": ranked_winner == base_winner,
        **walls,
    }


def _default_search_jobs() -> int:
    """Worker count of the parallel leg: up to 4, no more than the host
    has (oversubscribed workers only measure contention), at least 2."""
    return max(2, min(4, os.cpu_count() or 1))


def run_search_bench(
    quick: bool = False, jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Run the search benchmark; returns the BENCH_search payload.

    Three legs time the golden mm search (the workload pinned by
    tests/test_search_golden.py):

    * **parallel** — wall clock of the same search at ``-j 1`` and
      ``-j N`` (``jobs``; default :func:`_default_search_jobs`), legs
      interleaved, median of the repeats.  The winner and every
      per-point decision are byte-identical across legs (the determinism
      tests pin this), so the comparison is pure parallelism: batch
      fan-out plus the engine's speculation
      (:meth:`~repro.eval.EvalEngine.speculate`), which runs only when
      the engine can overlap work — ``-j N`` on a multi-CPU host.  N=24 is the golden size; the full run adds N=64,
      where a simulation costs enough for speculation to pay, and
      ``parallel_speedup`` is ``-j 1`` wall / ``-j N`` wall there.  The
      speedup only means something on a host with >= ``jobs`` cores —
      it ships with the host context for exactly that reason;
    * **prescreen** — simulations run with the analytical-model prescreen
      on vs off, on *all four* machine models, with the tuned winner
      reported as matching or not.  Each machine also records both
      walls and ``wall_speedup`` (plain / pruned): the model must pay in
      wall-clock, not only in simulations avoided;
    * **learned** — the same comparison for the learned ranking
      surrogate: train on the base run's own trace, rerun with the
      ranker batch-pruning candidates.  Walls as for the prescreen.

    The avoided fractions and winner matches are deterministic, so
    their floors are tier-1 tests (``tests/test_pipeline_search.py``,
    ``tests/test_learned.py``); this payload only reports them.  Every
    parallel leg also reports **wall-based sims/sec** (``simulations /
    wall_seconds`` over the whole search, front end included); the
    floor gates the best leg's rate.
    """
    from repro.analysis.learned import (
        DEFAULT_EXPLORE,
        DEFAULT_RANKER_MARGIN,
        DEFAULT_TOP_K,
    )
    from repro.analysis.surrogate import DEFAULT_MARGIN
    from repro.machines import MACHINES

    jobs = jobs if jobs is not None else _default_search_jobs()
    #: (problem size, interleaved repeats): cheap N=24 runs get enough
    #: repeats for a stable median, N=64 (~10 s a run) a few
    sizes = ((24, 1),) if quick else ((24, 10), (64, 3))
    #: interleaved repeats of each plain/pruned wall pair in the
    #: prescreen and learned legs
    model_repeats = 1 if quick else 3
    payload: Dict[str, object] = {
        "schema": 3,
        "quick": quick,
        "repeats": {str(size): repeats for size, repeats in sizes},
        "jobs": jobs,
        "python": platform.python_version(),
        "host": _host_context(),
        "methodology": (
            "golden mm search (full_search_variants=2) at -j 1 and -j N, "
            "legs interleaved, median wall of the repeats; prescreen and "
            "learned legs run at N=24, -j 1 (their sim counts and winners "
            "are deterministic), plain and pruned searches interleaved, "
            "each from a cold base-IR cache, median wall of the repeats; "
            "the learned leg trains on the base run's own trace"
        ),
    }

    _golden_search_once("sgi", 1, False)  # warmup
    wall_seconds: Dict[str, float] = {}
    sims_per_sec: Dict[str, int] = {}
    sims: Dict[str, Dict[str, int]] = {}
    winner_match = True
    for size, repeats in sizes:
        walls: Dict[int, List[float]] = {1: [], jobs: []}
        winners = []
        for _ in range(repeats):
            for leg_jobs in walls:
                wall, stats, winner = _golden_search_once(
                    "sgi", leg_jobs, False, size=size
                )
                walls[leg_jobs].append(wall)
                winners.append(winner)
        winner_match = winner_match and all(w == winners[0] for w in winners)
        sims[str(size)] = {
            "sims": stats.simulations,
            "full_sims": stats.full_sims,
            "delta_sims": stats.delta_sims,
        }
        for leg_jobs, samples in walls.items():
            label = f"N{size}-j{leg_jobs}"
            wall_seconds[label] = round(statistics.median(samples), 3)
            sims_per_sec[label] = int(
                stats.simulations / max(1e-9, wall_seconds[label])
            )
    search: Dict[str, object] = {
        "workload": "golden-search-mm@sgi-r10k-mini",
        "sims": sims,
        "winner_match": winner_match,
        "wall_seconds": wall_seconds,
        "sims_per_sec": sims_per_sec,
        "best_sims_per_sec": max(sims_per_sec.values()),
    }
    if not quick:
        search["parallel_speedup"] = round(
            wall_seconds["N64-j1"] / max(1e-9, wall_seconds[f"N64-j{jobs}"]),
            2,
        )
    payload["search"] = search

    per_machine: Dict[str, Dict[str, object]] = {}
    for name in MACHINES:
        walls, (base_stats, base_winner), (pre_stats, pre_winner) = (
            _wall_pair(
                lambda: _golden_search_once(name, 1, False),
                lambda: _golden_search_once(name, 1, True),
                model_repeats,
            )
        )
        avoided = 1.0 - pre_stats.simulations / max(
            1, base_stats.simulations
        )
        per_machine[name] = {
            "sims_base": base_stats.simulations,
            "sims_prescreen": pre_stats.simulations,
            "prescreen_skips": pre_stats.prescreen_skips,
            "avoided_frac": round(avoided, 4),
            "winner_match": pre_winner == base_winner,
            **walls,
        }
    golden = per_machine["sgi-r10k-mini"]
    payload["prescreen"] = {
        "margin": DEFAULT_MARGIN,
        "per_machine": per_machine,
        "avoided_frac": golden["avoided_frac"],
        "winner_match": all(
            row["winner_match"] for row in per_machine.values()
        ),
    }

    learned_machines = {
        name: _learned_leg(name, model_repeats) for name in MACHINES
    }
    payload["learned"] = {
        "top_k": DEFAULT_TOP_K,
        "explore": DEFAULT_EXPLORE,
        "margin": DEFAULT_RANKER_MARGIN,
        "seed": 0,
        "per_machine": learned_machines,
        "avoided_frac": learned_machines["sgi-r10k-mini"]["avoided_frac"],
        "min_avoided_frac": min(
            row["avoided_frac"] for row in learned_machines.values()
        ),
        "winner_match": all(
            row["winner_match"] for row in learned_machines.values()
        ),
    }
    return payload


def _host_mismatch(floor: Dict[str, object]) -> Optional[str]:
    """Why this host cannot enforce the floor's host-sensitive gates
    (``None`` when the floor records no host, or the hosts match)."""
    recorded = floor.get("host")
    if not isinstance(recorded, dict):
        return None
    current = _host_context()
    if recorded.get("cpu_count") != current["cpu_count"]:
        return (
            f"cpu_count {current['cpu_count']} != floor's "
            f"{recorded.get('cpu_count')}"
        )
    return None


def check_search_floor(
    results: Dict[str, object], floor: Dict[str, object]
) -> Tuple[List[str], List[str]]:
    """Compare a search-bench run against the committed floor.

    Returns ``(failures, warnings)``.  Both gates (the ``-j 1`` / ``-j N``
    parallel speedup, the wall-based sims/sec rate) are host-sensitive:
    they get ``FLOOR_SLACK`` and are downgraded to warnings when this
    host differs from the one the floor was measured on.  A 1-core
    runner cannot exhibit a 4-worker speedup, and failing there would
    only teach people to ignore the gate.  A single-core host is
    *always* treated as mismatched — even a floor mistakenly recorded
    with ``cpu_count: 1`` cannot make parallel wall-clock claims
    enforceable.  A ``--quick`` run measures no N=64 legs, so it carries
    no parallel speedup and only warns about it.
    """
    warnings: List[str] = []
    shortfalls: List[str] = []
    gates = floor.get("host_sensitive", {})
    search = results.get("search", {})
    min_speedup = gates.get("parallel_speedup")
    if min_speedup is not None and results.get("quick"):
        warnings.append("parallel speedup not measured (--quick runs no N=64 legs)")
    elif min_speedup is not None:
        actual = search.get("parallel_speedup", 0.0)
        limit = min_speedup * (1 - FLOOR_SLACK)
        if actual < limit:
            shortfalls.append(
                f"parallel speedup {actual}x is below {limit:.2f}x "
                f"(floor {min_speedup}x - {FLOOR_SLACK:.0%} slack)"
            )
    min_sims_rate = gates.get("best_sims_per_sec")
    if min_sims_rate is not None:
        actual_rate = search.get("best_sims_per_sec", 0)
        limit = min_sims_rate * (1 - FLOOR_SLACK)
        if actual_rate < limit:
            shortfalls.append(
                f"best search rate {actual_rate:,} sims/sec is below "
                f"{limit:,.0f} (floor {min_sims_rate:,} - "
                f"{FLOOR_SLACK:.0%} slack)"
            )
    mismatch = _host_mismatch(floor)
    if mismatch is None and _host_context()["cpu_count"] == 1:
        mismatch = "single-core host (cpu_count 1) cannot exhibit parallel speedup"
    if mismatch:
        warnings += [
            f"{message} — warning only, host differs from the floor's "
            f"({mismatch})"
            for message in shortfalls
        ]
        return [], warnings
    return shortfalls, warnings


def _load_floor(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def _print_search(results: Dict[str, object]) -> None:
    search = results["search"]
    walls = ", ".join(
        f"{label}={seconds:.2f}s"
        for label, seconds in search["wall_seconds"].items()
    )
    counts = ", ".join(
        f"N{size}: {row['sims']} sims "
        f"({row['full_sims']} full + {row['delta_sims']} delta)"
        for size, row in search["sims"].items()
    )
    print(f"  {search['workload']}: {counts}; winner identical in "
          f"every leg: {search['winner_match']}")
    print(f"  median wall: {walls}")
    rates = ", ".join(
        f"{label}={rate:,}/s"
        for label, rate in search["sims_per_sec"].items()
    )
    print(f"  sims/sec (wall): {rates}; "
          f"best {search['best_sims_per_sec']:,}/s")
    if "parallel_speedup" in search:
        print(f"  parallel speedup at N=64, -j1 / -j{results['jobs']}: "
              f"{search['parallel_speedup']}x "
              f"(host has {results['host']['cpu_count']} cpus)")
    prescreen = results["prescreen"]
    print(f"  prescreen (margin {prescreen['margin']}): "
          f"avoided {prescreen['avoided_frac']:.1%} of golden-search "
          f"sims, winner match on all machines: "
          f"{prescreen['winner_match']}")
    for name, row in prescreen["per_machine"].items():
        print(f"    {name:22s} sims {row['sims_base']:>3} -> "
              f"{row['sims_prescreen']:>3}  "
              f"avoided {row['avoided_frac']:>6.1%}  "
              f"{_format_walls(row)}  "
              f"winner_match={row['winner_match']}")
    learned = results["learned"]
    print(f"  learned ranker (top_k {learned['top_k']}, explore "
          f"{learned['explore']}, margin {learned['margin']}): avoided "
          f"{learned['avoided_frac']:.1%} of golden-search sims "
          f"(min {learned['min_avoided_frac']:.1%} across machines), "
          f"winner match on all machines: {learned['winner_match']}")
    for name, row in learned["per_machine"].items():
        print(f"    {name:22s} sims {row['sims_base']:>3} -> "
              f"{row['sims_ranked']:>3}  "
              f"avoided {row['avoided_frac']:>6.1%}  "
              f"{_format_walls(row)}  "
              f"winner_match={row['winner_match']}")


def _format_walls(row: Dict[str, object]) -> str:
    walls = row["wall_seconds"]
    return (f"wall {walls['base']:.2f}s -> {walls['pruned']:.2f}s "
            f"({row['wall_speedup']:.2f}x)")


def run(args) -> int:
    """``repro bench`` on the arguments ``repro.__main__`` parsed: run
    the search benchmark, write its JSON, print the summary and, with
    ``--check``, gate against the committed floor.  Returns the exit
    status."""
    results = run_search_bench(quick=args.quick)
    out = args.out or "BENCH_search.json"
    with open(out, "w") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    _print_search(results)
    if not args.check:
        return 0

    floor = _load_floor(SEARCH_FLOOR_PATH)
    if floor is None:
        print(f"floor file {SEARCH_FLOOR_PATH} not found: nothing to check against")
        return 1
    if results["host"]["single_core"]:
        print("PERF WARNING: single-core host (cpu_count 1): parallel "
              "speedup and sims/sec rates here are not representative; "
              "host-sensitive gates are reported as warnings only")
    failures, warnings = check_search_floor(results, floor)
    for warning in warnings:
        print(f"PERF WARNING: {warning}")
    for failure in failures:
        print(f"PERF REGRESSION: {failure}")
    if failures:
        return 1
    print(f"floor check passed ({SEARCH_FLOOR_PATH})")
    return 0
