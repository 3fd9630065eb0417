#!/usr/bin/env python3
"""Regenerate ``expected.json``: the pinned answer of every request any
seed can generate.

    python3 perfbench/pin.py

Enumerates each workload's whole request space (``workloads.py`` keeps it
finite) and runs it through the same child interpreters the benchmark
uses.  An answer is pinned only if it passes the IR-interpreter check.
Re-pin only when a change is *meant* to alter winners or their MFLOPS,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import run
import workloads

FIELDS = ("variant", "values", "prefetch", "pads", "mflops")


def pinned(answer: Dict[str, Any]) -> Dict[str, Any]:
    if answer.get("oracle"):
        raise SystemExit(f"refusing to pin {workloads.request_id(answer)}: "
                         f"{answer['oracle']}")
    entry = {"winner": {k: answer["winner"][k] for k in FIELDS},
             "sims": answer["sims"]}
    if answer.get("series"):
        entry["series"] = {str(n): v for n, v in answer["series"]}
    return entry


def answers(batch: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The answers of one pass; refuses a pass that did not run cleanly."""
    data = run.run_pass(batch, False, "pin")
    problems = [message for _, message in data["crashed"]] + data["errors"]
    if problems:
        raise SystemExit(f"refusing to pin a failed pass: {problems}")
    return data["answers"]


def tune_answers(scale: str) -> List[Dict[str, Any]]:
    return answers([{"workload": "tune-default", "op": op}
                    for op in workloads.tune_stream(0, scale)])


def sweep_answers(scale: str) -> List[Dict[str, Any]]:
    plan = workloads.sweep_plan(0, scale)
    plan["mm_sizes"], plan["jacobi_sizes"] = workloads.sweep_sizes(scale)
    return answers([{"workload": "paper-sweep", "plan": plan}])


def serve_answers(scale: str) -> List[Dict[str, Any]]:
    return answers([{"workload": "serve-mix",
                     "stream": workloads.serve_stream(0, scale)}])


def main() -> int:
    path = run.HERE / "expected.json"
    expected = {}
    sources = {"tune-default": tune_answers, "paper-sweep": sweep_answers,
               "serve-mix": serve_answers}
    for scale in ("tiny", "full"):
        for workload in workloads.WORKLOADS:
            prefix = f"{workload}:{scale}:"
            for answer in sources[workload](scale):
                key = prefix + workloads.request_id(answer)
                expected[key] = pinned(answer)
                print(key, answer["winner"]["variant"], answer["sims"],
                      file=sys.stderr)
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
