#!/usr/bin/env python3
"""The repository benchmark: the tuner measured at three user boundaries.

    python3 perfbench/run.py --workload tune-default --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``tune-default``
(one-shot ``repro tune``), ``paper-sweep`` (Figures 4 and 5) and
``serve-mix`` (a served request stream).  Every pass runs in a fresh
child interpreter (``child.py``), at ``-j1``.

``--trace 0`` runs passes until ``--seconds`` is spent and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
of the same inputs and reports the per-layer metrics, the layer table and
the tracing overhead.  Either way every answer is checked against the
pinned ``expected.json`` and against the IR interpreter; a failed check
makes the exit code non-zero.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: set-up samples per run: the pass interpreters plus set-up-only interpreters
SETUP_SAMPLES = 9
CHILD_TIMEOUT = 170.0
SCRATCH = ROOT / ".perfbench"
MFLOPS_RTOL = 1e-9
#: a speed probe's time at the reference speed (about a 2-CPU x86_64 VM's)
REFERENCE_PROBE_S = 0.1


class ChildError(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child interpreter; its JSON result."""
    payload = dict(payload, t0=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(payload)],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildError(f"{payload['workload']} pass timed out") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{payload['workload']} pass exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def payloads(workload: str, seed: int, scale: str) -> List[Dict[str, Any]]:
    """The child payloads of one pass (tune-default: one per request)."""
    if workload == "tune-default":
        return [{"workload": workload, "op": op}
                for op in workloads.tune_stream(seed, scale)]
    if workload == "paper-sweep":
        return [{"workload": workload, "plan": workloads.sweep_plan(seed, scale)}]
    return [{"workload": workload, "stream": workloads.serve_stream(seed, scale)}]


def normalized(child: Dict[str, Any]) -> Tuple[float, List[Dict[str, Any]]]:
    """One child's pass wall and timed segments at the reference speed.

    The host's speed drifts by tens of percent within a minute, so raw
    walls of identical passes spread too widely to judge a change by.
    Every timed segment is followed by a fixed-work speed probe
    (``child.probe``), so segment ``i`` lies between probes ``i`` and
    ``i + 1``: it is rescaled by their mean against
    :data:`REFERENCE_PROBE_S`, and the rest of the wall by the mean of all
    the child's probes.  A contaminated probe (``None``: the program's
    other threads ran during it, see ``child.Clock``) rescales nothing; a
    segment with no clean probe beside it stays raw.  Set-up time is
    never rescaled: it is mostly reading and unmarshalling modules, which
    the probe does not track.
    """
    probes, segments = child["probes"], child["segments"]

    def scale(readings: List[Optional[float]]) -> float:
        clean = [p for p in readings if p is not None]
        return REFERENCE_PROBE_S / statistics.mean(clean) if clean else 1.0

    out = [dict(segment, norm=segment["raw"] * scale(probes[i:i + 2]))
           for i, segment in enumerate(segments)]
    rest = child["wall_s"] - sum(s["raw"] for s in segments)
    return rest * scale(probes) + sum(s["norm"] for s in out), out


def spawn_in_workdir(payload: Dict[str, Any], tag: str) -> Dict[str, Any]:
    """:func:`spawn`, giving a serve child a throwaway directory for its
    socket and store (removed afterwards)."""
    if payload["workload"] != "serve-mix":
        return spawn(payload)
    workdir = SCRATCH / "tmp" / f"{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return spawn(dict(payload, workdir=str(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(batch: List[Dict[str, Any]], trace: bool, tag: str) -> Dict[str, Any]:
    """Run a pass's children in order; merge what they report.

    A child that crashes, times out or prints no result fails all of its
    operations (``crashed``: ``[operations, message]``); the pass goes on
    with the next child.
    """
    children, crashed = [], []
    for index, payload in enumerate(batch):
        payload = dict(payload, trace=trace)
        if trace:
            (SCRATCH / "traces").mkdir(parents=True, exist_ok=True)
            payload["trace_path"] = str(
                SCRATCH / "traces" / f"{payload['workload']}-{tag}-{index}.jsonl")
        try:
            children.append(spawn_in_workdir(payload, f"{tag}-{index}"))
        except ChildError as error:
            crashed.append([workloads.operations(payload), str(error)])
    merged: Dict[str, Any] = {
        "crashed": crashed,
        "setups": [c["setup_s"] for c in children],
        "wall_raw_s": sum(c["wall_s"] for c in children),
        "rss_mb": max((c["rss_mb"] for c in children), default=0.0),
        "contaminated": sum(c["probes"].count(None) for c in children),
        "measured": sum(c.get("measured", 0) for c in children),
        "counters": children[-1].get("counters", {}) if children else {},
        "keys": {k: v for c in children for k, v in c.get("keys", {}).items()},
        "children": [{k: v for k, v in c.items() if k != "layers"} for c in children],
    }
    for key in ("answers", "stats", "hits", "errors"):
        merged[key] = [item for c in children for item in c.get(key, [])]
    walls, searches, searches_raw, measure = [], [], [], 0.0
    for child in children:
        wall, segments = normalized(child)
        walls.append(wall)
        # a `repro tune` user waits from process start to the winner
        setup = child["setup_s"] if batch[0]["workload"] == "tune-default" else 0.0
        for segment in segments:
            if segment["label"] == "search":
                searches.append(segment["norm"] + setup)
                searches_raw.append(segment["raw"] + setup)
            elif segment["label"] == "measure":
                measure += segment["norm"]
    merged.update(wall_s=sum(walls), searches=searches,
                  searches_raw=searches_raw, measure_s=measure)
    if trace:
        merged["layers"] = spans.merge([c["layers"] for c in children])
        merged["sim_accesses"] = sum(c["sim_accesses"] for c in children)
        merged["trace_overhead_s"] = sum(c["trace_overhead_s"] for c in children)
    return merged


# -- output check -------------------------------------------------------------

def load_expected(path: Path) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def same_winner(got: Dict[str, Any], want: Dict[str, Any]) -> Optional[str]:
    for field in ("variant", "values", "prefetch", "pads"):
        if got[field] != want[field]:
            return f"{field} {got[field]!r} != pinned {want[field]!r}"
    if not math.isclose(got["mflops"], want["mflops"], rel_tol=MFLOPS_RTOL):
        return f"mflops {got['mflops']!r} != pinned {want['mflops']!r}"
    return None


def check_pass(workload: str, scale: str, data: Dict[str, Any],
               expected: Dict[str, Any], batch: List[Dict[str, Any]]) -> List[str]:
    """Every failed check of one pass, as a message."""
    failures = list(data["errors"])
    prefix = f"{workload}:{scale}:"
    for answer in data["answers"]:
        rid = workloads.request_id(answer)
        want = expected.get(prefix + rid)
        if answer.get("oracle"):
            failures.append(f"{rid}: interpreter check: {answer['oracle']}")
        if want is None:
            failures.append(f"{rid}: no pinned expectation")
            continue
        problem = same_winner(answer["winner"], want["winner"])
        if problem:
            failures.append(f"{rid}: winner {problem}")
        if answer["sims"] != want["sims"]:
            failures.append(f"{rid}: sims {answer['sims']} != pinned {want['sims']}")
        if answer.get("donor") is not None or "donor_size" in answer:
            donor = data["keys"].get(answer.get("donor"))
            if donor != answer.get("donor_size"):
                failures.append(f"{rid}: warm-start donor was size {donor}")
        for size, mflops in answer.get("series", []):
            pinned = want["series"].get(str(size))
            if pinned is None or not math.isclose(mflops, pinned, rel_tol=MFLOPS_RTOL):
                failures.append(f"{rid}: ECO MFLOPS at N={size} {mflops!r} "
                                f"!= pinned {pinned!r}")
    if workload == "serve-mix" and not data["crashed"]:
        kinds = [op["kind"] for op in batch[0]["stream"]]
        want_counters = {
            "requests": len(kinds) + kinds.count("dup"),
            "searches": len(kinds) - kinds.count("repeat"),
            "store_hits": kinds.count("repeat"),
            "dedup_hits": kinds.count("dup"),
            "warm_starts": kinds.count("near"),
            "failures": 0,
        }
        for name, value in want_counters.items():
            if data["counters"].get(name) != value:
                failures.append(f"serve counter {name}: "
                                f"{data['counters'].get(name)} != {value}")
    return failures


# -- metrics ------------------------------------------------------------------

def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mflops_values(data: Dict[str, Any]) -> List[float]:
    values = []
    for answer in data["answers"]:
        if answer.get("series"):
            values.extend(v for _, v in answer["series"])
        else:
            values.append(answer["winner"]["mflops"])
    return values


def pass_sims(workload: str, data: Dict[str, Any]) -> int:
    if workload == "paper-sweep":
        return sum(s["simulations"] for s in data["stats"]) + data["measured"]
    return sum(a["sims"] for a in data["answers"])


def end_to_end(workload: str, passes: List[Dict[str, Any]],
               setups: List[float]) -> Dict[str, Any]:
    """Metric name → (value, samples).  Pass timings are rescaled to the
    speed probe's reference speed (:func:`normalized`); the ``*_raw_s``
    figures beside them are the plain wall-clock readings."""
    med = statistics.median
    first = passes[0]
    out = {
        "setup_s": (med(setups), len(setups)),
        "wall_s": (med(p["wall_s"] for p in passes), len(passes)),
        "search_geomean_s": (med(geomean(p["searches"]) for p in passes),
                             len(passes) * len(first["searches"])),
        "sims": (pass_sims(workload, first), 1),
        "tuned_mflops_geomean": (geomean(mflops_values(first)),
                                 len(mflops_values(first))),
        "peak_rss_mb": (med(p["rss_mb"] for p in passes), len(passes)),
    }
    # printed, not part of the JSON result
    out["wall_raw_s"] = (med(p["wall_raw_s"] for p in passes), len(passes))
    out["search_geomean_raw_s"] = (med(geomean(p["searches_raw"]) for p in passes),
                                   out["search_geomean_s"][1])
    if workload == "tune-default":
        out["tune_geomean_s"] = out["search_geomean_s"]
    elif workload == "paper-sweep":
        out["measure_s"] = (med(p["measure_s"] for p in passes), len(passes))
    else:
        out["served_miss_geomean_s"] = out["search_geomean_s"]
        hits = [h for p in passes for h in p["hits"]]
        out["served_hit_p50_s"] = (med(hits), len(hits))
    return out


def per_layer(workload: str, traced: Dict[str, Any], plain: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metric name → value, from the traced pass."""
    table = traced["layers"]

    def row(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def stat(key: str) -> float:
        return sum(s.get(key, 0) for s in traced["stats"])

    sims = stat("simulations")
    evaluations = stat("cache_hits") + sims
    skips = stat("prescreen_skips")
    counters = traced["counters"]
    accesses = traced["sim_accesses"]
    sim_s = row("sim", "s")
    out = {
        "derive.calls": row("derive", "calls"),
        "derive.s": row("derive", "s"),
        "model.score.calls": row("model.score", "calls"),
        "model.score.s": row("model.score", "s"),
        "model.miss.s": row("model.miss", "s"),
        "model.skips": skips,
        "model.skip_frac": skips / (skips + evaluations) if skips + evaluations else 0.0,
        "learned.train.calls": row("learned.train", "calls"),
        "learned.train.s": row("learned.train", "s"),
        "learned.rank.s": row("learned.rank", "s"),
        "learned.skips": stat("ranker_skips"),
        "build.calls": row("build", "calls"),
        "build.s": row("build", "s"),
        "build.delta_frac": stat("delta_sims") / sims if sims else 0.0,
        "sim.calls": row("sim", "calls"),
        "sim.s": sim_s,
        "sim.accesses": accesses,
        "sim.accesses_per_s": accesses / sim_s if sim_s else 0.0,
        "eval.evaluations": evaluations,
        "eval.simulations": sims,
        "eval.cache_hit_frac": stat("cache_hits") / evaluations if evaluations else 0.0,
        "eval.batches": stat("batches"),
        "eval.self_s": row("eval", "self_s"),
        "eval.failures": stat("failures"),
        "eval.retries": stat("retries"),
        "search.s": row("search", "s"),
        "search.self_s": row("search", "self_s"),
        "atlas.tune.s": row("atlas.tune", "s"),
        "baselines.measure.s": row("baselines.measure", "s"),
        "serve.submit.s": row("serve.submit", "s"),
        "serve.self_s": row("serve.submit", "self_s"),
        "serve.hit_p50_s": statistics.median(plain["hits"]) if plain["hits"] else 0.0,
        "store.get.s": row("store.get", "s"),
        "store.put.s": row("store.put", "s"),
        "store.nearest.s": row("store.nearest", "s"),
        "other.s": row("other", "self_s"),
        "trace.wall_s": traced["wall_raw_s"],
        "trace.overhead_s": traced["trace_overhead_s"],
    }
    for stage in spans.STAGES:
        out[f"search.stage.{stage}.s"] = row(f"search.stage.{stage}", "s")
    for name in ("searches", "store_hits", "dedup_hits", "warm_starts"):
        out[f"serve.{name}"] = counters.get(name, 0)
    return out


def host_context() -> str:
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"{platform.machine()}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke tests")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="pinned answers to check against")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no program to measure here (src/repro and "
              "BENCHMARK.json must sit beside perfbench/)", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    expected = load_expected(Path(args.expected))

    # compile the package once, untimed: users do not pay that per run (a
    # package that fails to import fails every child, and so every operation)
    subprocess.run(
        [sys.executable, "-c",
         "import repro.core, repro.eval, repro.experiments.fig4, "
         "repro.experiments.fig5, repro.serve.daemon, repro.serve.client, "
         "repro.codegen.interp"],
        env=child_env(), cwd=str(ROOT), capture_output=True, timeout=CHILD_TIMEOUT)

    batch = payloads(args.workload, args.seed, args.scale)
    started = time.monotonic()
    passes: List[Dict[str, Any]] = []
    traced = None
    if args.trace:
        passes.append(run_pass(batch, False, f"s{args.seed}-plain"))
        traced = run_pass(batch, True, f"s{args.seed}-traced")
    else:
        while True:
            passes.append(run_pass(batch, False, f"s{args.seed}-p{len(passes)}"))
            elapsed = time.monotonic() - started
            if passes[-1]["crashed"] or elapsed + passes[-1]["wall_raw_s"] > args.seconds:
                break
    checked = passes + ([traced] if traced else [])
    crashed = any(data["crashed"] for data in checked)
    failures: List[str] = []
    setups = [s for p in passes for s in p["setups"]]
    while not args.trace and not crashed and len(setups) < SETUP_SAMPLES:
        try:
            setups.append(spawn_in_workdir(dict(batch[0], setup_only=True),
                                           f"setup{len(setups)}")["setup_s"])
        except ChildError as error:
            failures.append(f"set-up only: {error}")
            crashed = True

    # every child's raw timings and probes, for inspection after the run
    (SCRATCH / "runs").mkdir(parents=True, exist_ok=True)
    raw_path = SCRATCH / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    raw_path.write_text(json.dumps(
        {"passes": [p["children"] for p in checked], "setups": setups},
        default=float))
    attempted, failed = 0, len(failures)
    for data in checked:
        attempted += sum(workloads.operations(payload) for payload in batch)
        # a crashed child fails all its operations
        for ops, message in data["crashed"]:
            failed += ops
            failures.append(message)
        # a failed check fails (at least) its operation
        checks = check_pass(args.workload, args.scale, data, expected, batch)
        failed += len(checks)
        failures.extend(checks)
    failed = min(failed, attempted)

    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"passes={len(passes)} {host_context()}")
    print(f"why: {workloads.WHY[args.workload]}")
    contaminated = sum(data["contaminated"] for data in checked)
    if contaminated:
        print(f"speed probes overlapped by the program's threads (not used "
              f"for rescaling): {contaminated}")
    declared = []
    if crashed:
        print(f"no metrics: {failed} of {attempted} operations failed")
    elif args.trace:
        values = per_layer(args.workload, traced, passes[0])
        declared = spec["per_layer"]
        print(f"tracing overhead {values['trace.overhead_s']:.3f} s (spans x "
              f"wrapper cost); traced - untraced speed-normalized wall "
              f"{traced['wall_s'] - passes[0]['wall_s']:+.3f} s "
              f"({traced['wall_s']:.3f} - {passes[0]['wall_s']:.3f})")
        print(f"layer table (traced wall {traced['wall_raw_s']:.3f} s, raw):")
        print(spans.format_table(traced["layers"], traced["wall_raw_s"]))
    else:
        figures = end_to_end(args.workload, passes, setups)
        figures["failed_frac"] = (failed / attempted, attempted)
        values = {k: v[0] for k, v in figures.items()}
        samples = {k: v[1] for k, v in figures.items()}
        declared = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        extra = {"tune_geomean_s": "s", "measure_s": "s", "failed_frac": "frac",
                 "wall_raw_s": "s", "search_geomean_raw_s": "s",
                 "served_miss_geomean_s": "s", "served_hit_p50_s": "s"}
        print(f"  {'metric':<24}{'value':>14}  {'unit':<8}{'samples':>8}")
        for name, value in values.items():
            unit = units.get(name) or extra[name]
            print(f"  {name:<24}{value:>14.6g}  {unit:<8}{samples[name]:>8}")
    for message in failures:
        print(f"FAILED: {message}")
    metrics = {}
    for metric in declared:
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
