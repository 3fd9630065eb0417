"""Seeded fault plans for the chaos tests, and the fixtures that install them.

Every measurement here is a deterministic simulation, so only the
environment can fail: a simulation attempt runs out of memory, outlives
its timeout or loses its worker; a store's write fails with ENOSPC,
tears, or crashes before its rename; a read returns rotten bytes.  The
supervision code in :class:`repro.eval.EvalEngine` and the integrity
code in the stores exist to survive exactly that.  These plans make
the failures reproducible on demand, and install them at calls the
product makes anyway, so a chaos test drives the real safety code:

* :func:`worker_faults` wraps ``repro.eval.engine._simulate``, the one
  call of every simulation attempt, in this process and in the workers
  of every process pool created inside the block (through the pool's
  initializer, so it holds under ``fork``, ``spawn`` and
  ``forkserver``);
* :func:`storage_faults` wraps ``repro.storage.atomic.write_sealed`` and
  ``read_text``, the calls every sealed write and every cache or
  sealed-record read makes.

An injected failure surfaces as what the engine meets for real: a
``MemoryError`` from the simulation, a dead worker (``os._exit``), or
an attempt that outlives the engine's timeout.

The ``assert_tune_survives_*`` helpers run the CI chaos scenarios (the
golden ``repro tune mm --machine sgi --size 24``) through the CLI::

    PYTHONPATH=src python -c "from tests.chaos import *; \\
        assert_tune_survives_worker_faults()"
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import errno
import hashlib
import io
import json
import multiprocessing
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

import pytest

from repro.eval import engine as engine_module
from repro.storage import atomic
from repro.storage.records import seal_record

#: the worker fault kinds, and the storage fault kinds with the operation
#: each one hits
WORKER_FAULT_KINDS = ("oom", "hang", "kill")
STORAGE_FAULT_OPS = {"enospc": "write", "torn": "write", "crash": "write",
                     "corrupt_read": "read"}

_real_simulate = engine_module._simulate


def _check_rates(rates, kinds) -> None:
    for kind, rate in rates:
        if kind not in kinds:
            raise ValueError(f"unknown fault kind {kind!r} (want {kinds})")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
    total = sum(rate for _, rate in rates)
    if total > 1.0 + 1e-9:
        raise ValueError(f"fault rates sum to {total}, must be <= 1")


def _draw(text: str) -> float:
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _pick(rates, draw: float) -> Optional[str]:
    cumulative = 0.0
    for kind, rate in rates:
        cumulative += rate
        if draw < cumulative:
            return kind
    return None


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Seeded simulation faults, keyed by ``(candidate key, attempt)``.

    ``rates`` pairs fault kinds with the share of candidates that draw
    them.  A candidate suffers its fault on attempts ``0..attempts-1``
    and runs clean after, so with ``attempts=1`` a killed worker's
    candidates run clean when the engine re-dispatches them.  The draw
    is a pure function of ``(seed, key)``: a faulted run is exactly
    repeatable.
    """

    rates: Tuple[Tuple[str, float], ...]
    seed: int = 0
    attempts: int = 1
    #: how long a ``hang`` sleeps before the attempt simulates
    hang_seconds: float = 0.0

    def __post_init__(self) -> None:
        _check_rates(self.rates, WORKER_FAULT_KINDS)
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def decide(self, key: str, attempt: int) -> Optional[str]:
        kind = _pick(self.rates, _draw(f"{self.seed}:{key}"))
        return kind if attempt < self.attempts else None


@dataclass
class StorageFaultPlan:
    """Seeded storage faults, keyed by ``(op, label)``; each fires at most
    once, so a store makes progress and ``repro doctor`` meets a finite
    mess.  ``injected`` counts the faults that fired, by kind."""

    rates: Tuple[Tuple[str, float], ...]
    seed: int = 0
    _fired: Set[Tuple[str, str]] = field(default_factory=set, repr=False)
    injected: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _check_rates(self.rates, tuple(STORAGE_FAULT_OPS))

    def decide(self, op: str, label: str) -> Optional[str]:
        if (op, label) in self._fired:
            return None
        kind = _pick(self.rates, _draw(f"{self.seed}:{op}:{label}"))
        if kind is None or STORAGE_FAULT_OPS[kind] != op:
            return None
        self._fired.add((op, label))
        self.injected[kind] = self.injected.get(kind, 0) + 1
        return kind


# -- worker faults ------------------------------------------------------

#: the plan :func:`faulty_simulate` applies in this process
_PLAN: Optional[WorkerFaultPlan] = None


def _install(plan: Optional[WorkerFaultPlan]) -> None:
    """Pool initializer: the worker applies ``plan`` too."""
    global _PLAN
    _PLAN = plan


def faulty_simulate(payload):
    """``_simulate`` with the installed plan's fault for this attempt:
    ``oom`` raises ``MemoryError``; ``hang`` sleeps ``hang_seconds``
    first, so only a pool timeout preempts it; ``kill`` ends a pool
    worker and does nothing in this process, where an exit would end the
    test run."""
    key, attempt = payload[-2:]
    kind = _PLAN.decide(key, attempt) if _PLAN is not None else None
    if kind == "oom":
        raise MemoryError(f"injected out-of-memory for {key[:12]}")
    if kind == "hang":
        time.sleep(_PLAN.hang_seconds)
    if kind == "kill" and multiprocessing.parent_process() is not None:
        os._exit(86)  # a pool worker dies: the parent sees a broken pool
    return _real_simulate(payload)


@contextlib.contextmanager
def worker_faults(plan: WorkerFaultPlan, start_method: Optional[str] = None):
    """Fail simulation attempts by ``plan`` inside the block: serial ones,
    and those of every process pool created in the block, whose workers
    start by ``start_method`` (default: the platform's).  Yields the list
    of pools created in the block; each pool's ``workers`` lists the
    worker processes it started."""
    executor = concurrent.futures.ProcessPoolExecutor
    context = multiprocessing.get_context(start_method) if start_method else None
    pools = []

    class ChaosPool(executor):
        def __init__(self, max_workers=None):
            super().__init__(max_workers=max_workers, mp_context=context,
                             initializer=_install, initargs=(plan,))
            self.workers = []
            pools.append(self)

        def _spawn_process(self):
            # the executor's one call that starts a worker (Python >= 3.9)
            super()._spawn_process()
            self.workers += [p for p in self._processes.values()
                             if p not in self.workers]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_simulate", faulty_simulate)
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", ChaosPool)
        patch.setitem(globals(), "_PLAN", plan)
        yield pools


# -- storage faults -----------------------------------------------------


def _label(path) -> str:
    """A store artifact's name, independent of where the store lives."""
    path = Path(path)
    return f"{path.parent.name}/{path.name}"


def corrupt_text(raw: str) -> str:
    """Bit rot: one NUL stomped into the middle of the text."""
    mid = len(raw) // 2
    return raw[:mid] + "\x00" + raw[mid + 1:]


@contextlib.contextmanager
def storage_faults(plan: StorageFaultPlan):
    """Fail sealed writes and record reads by ``plan`` inside the block:
    ``enospc`` raises, ``torn`` lands half a record at the destination,
    ``crash`` strands a fully written temp file and skips the rename,
    ``corrupt_read`` rots the text a read returns."""
    real_write, real_read = atomic.write_sealed, atomic.read_text

    def write_sealed(path, kind, body):
        path = Path(path)
        fault = plan.decide("write", _label(path))
        if fault == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        if fault is None:
            return real_write(path, kind, body)
        text = seal_record(kind, body)
        path.parent.mkdir(parents=True, exist_ok=True)
        if fault == "torn":
            path.write_text(text[: max(1, len(text) // 2)])
            return None
        fd, _ = tempfile.mkstemp(prefix=atomic.TMP_PREFIX, suffix=".json",
                                 dir=str(path.parent))
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        return None

    def read_text(path):
        raw = real_read(path)
        if plan.decide("read", _label(path)) == "corrupt_read":
            raw = corrupt_text(raw)
        return raw

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(atomic, "write_sealed", write_sealed)
        patch.setattr(atomic, "read_text", read_text)
        yield plan


# -- the CI chaos scenarios ---------------------------------------------

CI_WORKER_FAULTS = WorkerFaultPlan(
    (("hang", 0.1), ("kill", 0.05)), seed=7, hang_seconds=0.01,
)
CI_STORAGE_RATES = (("enospc", 0.25), ("torn", 0.25), ("crash", 0.2),
                    ("corrupt_read", 0.2))


def _repro(*argv: str) -> str:
    """What ``repro argv`` prints, run in this process."""
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def _winner(text: str):
    return [line for line in text.splitlines()
            if "selected" in line or "prefetch:" in line]


def _stats(text: str) -> dict:
    line = next(l for l in text.splitlines() if l.startswith("stats json: "))
    return json.loads(line[len("stats json: "):])


def assert_tune_survives_worker_faults(
    kernel="mm", machine="sgi", size=24, jobs=3, plan=CI_WORKER_FAULTS
) -> None:
    """A ``-j jobs`` tune under ``plan`` picks the clean tune's winner,
    no candidate is transient, and the re-dispatches after a worker's
    death are counted."""
    tune = ("tune", kernel, "--machine", machine, "--size", str(size))
    clean = _repro(*tune)
    with worker_faults(plan):
        chaos = _repro(*tune, "-j", str(jobs), "--stats")
    assert _winner(chaos) == _winner(clean)
    stats = _stats(chaos)
    assert stats["transient_failures"] == 0
    assert stats["retries"] >= 1


def assert_tune_survives_storage_faults(
    root, kernel="mm", machine="sgi", size=24, rates=CI_STORAGE_RATES, seed=11
) -> None:
    """A cached tune under seeded storage faults picks the clean tune's
    winner, and ``repro doctor --repair`` (its report written to
    ``root/doctor.txt``) leaves a cache whose second scan is healthy."""
    tune = ("tune", kernel, "--machine", machine, "--size", str(size))
    cache = str(Path(root) / "cache")
    clean = _repro(*tune)
    plan = StorageFaultPlan(rates, seed=seed)
    with storage_faults(plan), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the expected ENOSPC warnings
        chaos = _repro(*tune, "--cache", cache)
    assert plan.injected, "the chaos must actually fire"
    assert _winner(chaos) == _winner(clean)
    doctor = ("doctor", "--cache", cache, "--corpus", str(Path(root) / "no-corpus"))
    with contextlib.suppress(SystemExit):  # exit 1: it found the damage
        _repro(*doctor, "--repair", "-o", str(Path(root) / "doctor.txt"))
    assert "status: healthy" in _repro(*doctor)
