"""Seeded request streams for the three benchmark workloads.

Pure functions of ``(seed, scale)``: the same seed always yields the same
requests, and nothing here imports the program under test, so ``run.py``
can build a stream without paying the package's import cost.

Each generator varies only what keeps a pass's work the same across
seeds.  A metric can judge a change only if its quartile spread over
many seeds stays within its bound, and tune cost is not smooth in the problem size (mm on the mini UltraSPARC tunes in
3.6 s at N=8 but 11.3 s at N=10), so a seed that moved tune or served
sizes would dominate every figure.  The seeds therefore vary:

* ``tune-default`` — the order of the five one-shot tunes;
* ``paper-sweep`` — every measured sweep size, jittered around the
  paper's grid (the tuning sizes, and so the tuned winners, and the
  machine order are fixed);
* ``serve-mix`` — the order of the fresh and near-size requests, where
  the duplicate pair falls, and which stored answers the repeats ask for.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("tune-default", "paper-sweep", "serve-mix")

WHY = {
    "tune-default": (
        "one-shot `repro tune` with prescreen on: the model layer does most "
        "of the work, so making model guidance pay shows here"
    ),
    "paper-sweep": (
        "fig4+fig5 regeneration at -j1: the simulator does most of the work "
        "and the model none, so a simulator gain shows and a model-only "
        "change must not"
    ),
    "serve-mix": (
        "daemon plus one client: fresh, warm-start, duplicate and repeat "
        "requests; the only workload with serve, storage and ranker training"
    ),
}

MACHINES = ("sgi", "sun")

#: one-shot tunes: (kernel, machine, N).  Every kernel, both mini
#: machines; sizes chosen so the five tunes take ~13 s together on a
#: 2-CPU host.
TUNE_REQUESTS = {
    "full": (
        ("mm", "sun", 8),
        ("jacobi", "sun", 10),
        ("matvec", "sgi", 16),
        ("conv2d", "sun", 8),
        ("stencil2d", "sgi", 16),
    ),
    "tiny": (
        ("matvec", "sun", 6),
        ("stencil2d", "sgi", 6),
    ),
}

#: paper sweep: fixed tuning sizes, sweep sizes = grid point + jitter
SWEEP = {
    "full": {
        "mm_tuning_size": 24,
        "jacobi_tuning_size": 16,
        "mm_grid": (16, 24, 32, 40, 48),
        "jacobi_grid": (10, 14, 18, 22, 26),
        "jitter": (-1, 0, 1),
    },
    "tiny": {
        "mm_tuning_size": 6,
        "jacobi_tuning_size": 5,
        "mm_grid": (6, 10),
        "jacobi_grid": (5, 8),
        "jitter": (0, 1),
    },
}

#: serve-mix misses, one set per scale: a fresh request per lane, then a
#: near-size request per lane (warm-started from that lane's fresh
#: answer, its nearest stored donor), and one duplicate pair asking for
#: a cold search.  Served cost depends strongly on size and donor
#: (stencil2d on sgi: 4.9 s from one donor, 11.9 s from another), so the
#: sizes are fixed and the seed only orders the stream.
SERVE = {
    "full": {
        "fresh": (("matvec", "sgi", 44), ("matvec", "sun", 44),
                  ("stencil2d", "sgi", 52), ("stencil2d", "sun", 52)),
        "near": (("matvec", "sgi", 48, 44), ("matvec", "sun", 40, 44),
                 ("stencil2d", "sgi", 48, 52), ("stencil2d", "sun", 48, 52)),
        "dup": ("matvec", "sun", 72),
        "repeats": 60,
    },
    "tiny": {
        "fresh": (("matvec", "sgi", 8), ("stencil2d", "sun", 8)),
        "near": (("matvec", "sgi", 10, 8), ("stencil2d", "sun", 10, 8)),
        "dup": ("matvec", "sgi", 16),
        "repeats": 6,
    },
}


def problem_for(kernel: str, size: int) -> Dict[str, int]:
    """The problem a `repro tune KERNEL --size N` would solve (the CLI
    binds every non-N parameter, e.g. conv2d's filter size, to 3)."""
    return {"N": size, "F": 3} if kernel == "conv2d" else {"N": size}


def tune_stream(seed: int, scale: str = "full") -> List[Dict[str, object]]:
    """tune-default: one request per kernel (tiny: two), seeded order."""
    requests = [
        {"kernel": k, "machine": m, "size": n}
        for k, m, n in TUNE_REQUESTS[scale]
    ]
    random.Random(seed).shuffle(requests)
    return requests


def sweep_plan(seed: int, scale: str = "full") -> Dict[str, object]:
    """paper-sweep: both machines in the paper's panel order (a, b), with
    jittered sweep sizes.  The order stays fixed: the second machine's
    tunings run up to 25% slower than the first's in the same process."""
    spec = SWEEP[scale]
    rng = random.Random(seed)
    mm = sorted({n + rng.choice(spec["jitter"]) for n in spec["mm_grid"]})
    jac = sorted({n + rng.choice(spec["jitter"]) for n in spec["jacobi_grid"]})
    return {
        "machines": list(MACHINES),
        "mm_sizes": mm,
        "mm_tuning_size": spec["mm_tuning_size"],
        "jacobi_sizes": jac,
        "jacobi_tuning_size": spec["jacobi_tuning_size"],
    }


def sweep_sizes(scale: str = "full") -> Tuple[List[int], List[int]]:
    """Every sweep size any seed can draw (for pinning expectations)."""
    spec = SWEEP[scale]
    mm = sorted({n + j for n in spec["mm_grid"] for j in spec["jitter"]})
    jac = sorted({n + j for n in spec["jacobi_grid"] for j in spec["jitter"]})
    return mm, jac


def serve_stream(seed: int, scale: str = "full") -> List[Dict[str, object]]:
    """serve-mix: a closed-loop stream of operations for one client.

    ``kind`` is ``fresh`` (cold search), ``near`` (warm start from the
    lane's fresh answer), ``dup`` (two back-to-back submits that must
    coalesce onto one search) or ``repeat`` (an exact repeat of an
    answered request: a store hit).  The seed orders the fresh and the
    near requests, places the duplicate pair among the near ones (after
    every fresh answer, so it is never a donor) and picks the repeats,
    which are spread evenly after the first answer.
    """
    spec = SERVE[scale]
    rng = random.Random(seed)
    fresh = [{"kind": "fresh", "kernel": k, "machine": m, "size": n}
             for k, m, n in spec["fresh"]]
    near = [{"kind": "near", "kernel": k, "machine": m, "size": n,
             "donor_size": d} for k, m, n, d in spec["near"]]
    rng.shuffle(fresh)
    rng.shuffle(near)
    kernel, machine, size = spec["dup"]
    near.insert(rng.randrange(len(near) + 1),
                {"kind": "dup", "kernel": kernel, "machine": machine, "size": size})
    misses = fresh + near
    stream: List[Dict[str, object]] = []
    per_gap, extra = divmod(spec["repeats"], len(misses))
    for index, miss in enumerate(misses):
        stream.append(miss)
        for _ in range(per_gap + (1 if index < extra else 0)):
            pick = rng.choice(misses[:index + 1])
            stream.append({"kind": "repeat", "kernel": pick["kernel"],
                           "machine": pick["machine"], "size": pick["size"]})
    return stream


def operations(payload: Dict[str, object]) -> int:
    """Operations one child interpreter attempts: a tune; each served
    request; or each of the sweep's tunings (ECO mm, ATLAS, ECO jacobi per
    machine) and measured points (Figure 4: ECO, Native, ATLAS and BLAS
    per mm size; Figure 5: ECO and Native per jacobi size)."""
    if payload["workload"] == "tune-default":
        return 1
    if payload["workload"] == "serve-mix":
        return len(payload["stream"])
    plan = payload["plan"]
    per_machine = 3 + 4 * len(plan["mm_sizes"]) + 2 * len(plan["jacobi_sizes"])
    return per_machine * len(plan["machines"])


def request_id(op: Dict[str, object]) -> str:
    """The expected-file key of one answered tune request."""
    base = f"{op['kernel']}/{op['machine']}/{op['size']}"
    if op.get("donor_size") is not None:
        return f"{base}<-{op['donor_size']}"
    return base
