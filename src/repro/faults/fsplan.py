"""Deterministic, seeded *filesystem* fault injection for the stores.

:class:`repro.faults.FaultPlan` chaos-tests the evaluation workers; this
module does the same for the persistence layer.  An :class:`FsFaultPlan`
is threaded into the disk cache and corpus through the
``repro.storage`` write/read helpers, and injects the four classic
storage failure modes at the exact syscall boundary where they occur in
the wild (see :mod:`repro.storage.atomic` for what each does):

* ``enospc``       — the write raises ``OSError(ENOSPC)``;
* ``torn``         — a short write lands *and is renamed into place*;
* ``crash``        — crash-before-rename: a stranded ``.tmp-*`` file and
  a write that silently never happened;
* ``corrupt_read`` — the read returns mangled bytes (bit rot).

The draw is a pure function of ``(seed, op, label)`` — the same labels a
run touches always suffer the same faults — but unlike worker faults,
each (op, label) fires **at most once** per process: a store whose every
write fails forever could make no progress, whereas fire-once models a
bounded burst of bad luck and leaves a finite mess for ``repro doctor``.

The determinism contract is stronger here than for worker faults: every
storage fault only loses persistence (a cache write that didn't land or
tore) or forces a re-read miss — it never changes what a
search *computes*.  So a search under ``--inject-fs-faults`` converges
byte-identically to the clean run *by construction*, and the chaos test
asserts exactly that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

__all__ = ["FS_FAULT_KINDS", "FsFaultPlan", "FsFaultSpec"]

#: the four storage failure modes, and the operation each applies to
FS_FAULT_KINDS = ("enospc", "torn", "crash", "corrupt_read")
_KIND_OPS = {
    "enospc": "write",
    "torn": "write",
    "crash": "write",
    "corrupt_read": "read",
}


@dataclass(frozen=True)
class FsFaultSpec:
    """One storage failure mode with its probability."""

    kind: str
    rate: float

    def __post_init__(self) -> None:
        if self.kind not in FS_FAULT_KINDS:
            raise ValueError(
                f"unknown fs fault kind {self.kind!r} (want {FS_FAULT_KINDS})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


@dataclass
class FsFaultPlan:
    """A seeded schedule of filesystem faults, keyed by store label.

    Stores pass a stable label for each artifact they touch (e.g.
    ``cache/3f/<key>``, ``corpus/index``), and
    :meth:`decide` returns the fault that artifact suffers on this
    operation — once.  ``injected`` counts what actually fired, so tests
    can assert the chaos was real.
    """

    specs: Tuple[FsFaultSpec, ...] = ()
    seed: int = 0
    _fired: Set[Tuple[str, str]] = field(default_factory=set, repr=False)
    #: per-kind count of faults that actually fired
    injected: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        total = sum(spec.rate for spec in self.specs)
        if total > 1.0 + 1e-9:
            raise ValueError(f"fs fault rates sum to {total}, must be <= 1")

    # -- the deterministic draw -----------------------------------------
    def decide(self, op: str, label: str) -> Optional[str]:
        """The fault (if any) this ``(op, label)`` suffers — at most once.

        ``op`` is ``"write"`` or ``"read"``; only kinds applicable to
        that operation can fire.  The draw itself is deterministic in
        ``(seed, op, label)``; the fire-once memory is per-plan (i.e.
        per-process), so retries and later writes of the same artifact
        succeed.
        """
        if not self.specs:
            return None
        if (op, label) in self._fired:
            return None
        draw = self._draw(op, label)
        cumulative = 0.0
        for spec in self.specs:
            cumulative += spec.rate
            if draw < cumulative:
                if _KIND_OPS[spec.kind] != op:
                    return None
                self._fired.add((op, label))
                self.injected[spec.kind] = self.injected.get(spec.kind, 0) + 1
                return spec.kind
        return None

    def _draw(self, op: str, label: str) -> float:
        digest = hashlib.sha256(f"{self.seed}:{op}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    # -- construction helpers -------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FsFaultPlan":
        """Build a plan from a CLI spec like
        ``"enospc=0.2,torn=0.2,crash=0.1,corrupt_read=0.2,seed=11"``."""
        specs = []
        seed = 0
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad fs fault spec {part!r} (want kind=rate)")
            name, _, value = part.partition("=")
            name = name.strip()
            value = value.strip()
            if name == "seed":
                seed = int(value)
            elif name in FS_FAULT_KINDS:
                specs.append(FsFaultSpec(name, float(value)))
            else:
                raise ValueError(
                    f"unknown fs fault spec key {name!r} "
                    f"(want one of {FS_FAULT_KINDS + ('seed',)})"
                )
        if not specs:
            raise ValueError(
                f"fs fault spec {text!r} names no fault kinds (want e.g. 'torn=0.2')"
            )
        return cls(specs=tuple(specs), seed=seed)

    def describe(self) -> str:
        if not self.specs:
            return "no fs faults"
        bits = [f"{s.kind}={s.rate:g}" for s in self.specs]
        return f"seed={self.seed} " + " ".join(bits)
