"""The sealed request-result store: completed answers, served instantly.

One record per request key, layered *above* the content-addressed
candidate cache: the cache remembers individual simulations, this store
remembers whole answered questions — winner, engine accounting, the
canonical trace (so a repeat request replays the exact evidence), and
serving provenance (warm-start donor, ranker fingerprint).  Records are
sealed (:mod:`repro.storage.records`), written atomically under a
cross-process file lock, and quarantined on checksum failure — the same
integrity discipline as every other store.  ``repro doctor`` does not
scan this store (it audits the cache and corpus); a corrupt
record is caught by :meth:`RequestStore.get`'s checksum instead.

``nearest`` is the transfer-tuning index: among completed requests for
the same kernel on the same machine spec, the one closest in
log-problem-size donates its winner as a warm-start seed and its
trained ranker artifact (docs/serving.md).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.storage.atomic import read_sealed, write_sealed
from repro.storage.locks import FileLock
from repro.storage.quarantine import quarantine_file
from repro.storage.records import RecordError

__all__ = ["RECORD_KIND", "RequestStore"]

RECORD_KIND = "serve-result"


class RequestStore:
    """Sealed request-result records under one directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: parsed record bodies by key (records are immutable once
        #: sealed — a key's answer never changes — so this never goes
        #: stale within a process; cross-process writers add keys,
        #: which directory scans pick up)
        self._bodies: Dict[str, Dict[str, Any]] = {}

    # -- paths -----------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def ranker_path(self, key: str) -> Path:
        return self.root / f"{key}.ranker.json"

    def _lock_path(self, key: str) -> Path:
        return self.root / f"{key}.lock"

    # -- records ---------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The sealed answer for ``key``, or ``None``.

        A record that fails its checksum is quarantined and reported as
        a miss — the daemon re-runs the search instead of serving a
        corrupt answer, and the evidence is kept in ``quarantine/``.
        """
        cached = self._bodies.get(key)
        if cached is not None:
            return cached
        path = self.path(key)
        try:
            body = read_sealed(path, RECORD_KIND)
        except OSError:
            return None
        except RecordError as error:
            quarantine_file(self.root, path, f"serve-result: {error}")
            return None
        self._bodies[key] = body
        return body

    def put(self, key: str, body: Mapping[str, Any]) -> None:
        """Seal and persist ``body`` as the answer for ``key``.

        First writer wins across processes: under the lock, an existing
        readable record is left alone — a request's answer is
        deterministic, so overwriting could only replace equal bytes or
        mask a divergence that deserves investigation.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self._lock_path(key))
        lock.acquire()
        try:
            if key not in self._bodies and self.get(key) is not None:
                return
            write_sealed(self.path(key), RECORD_KIND, dict(body))
            self._bodies[key] = dict(body)
        finally:
            lock.release()

    def keys(self) -> List[str]:
        """Keys of every record on disk (sorted: deterministic scans)."""
        if not self.root.is_dir():
            return []
        found = []
        for path in self.root.glob("*.json"):
            name = path.name
            if name.endswith(".ranker.json") or name.startswith("."):
                continue
            found.append(path.stem)
        return sorted(found)

    # -- transfer-tuning index -------------------------------------------
    def nearest(
        self,
        kernel: str,
        machine_spec: str,
        problem: Mapping[str, int],
        exclude: str = "",
    ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """The completed request nearest to ``problem``, same kernel and
        machine spec — the warm-start donor.

        Distance is the sum of |log2| ratios over the union of problem
        dims (a missing dim counts as 1): scale-free, so N=24 → N=32 is
        as close as N=48 → N=64.  Ties break on the smaller key, so
        donor choice is deterministic across daemon restarts.
        """
        best: Optional[Tuple[float, str, Dict[str, Any]]] = None
        for key in self.keys():
            if key == exclude:
                continue
            body = self.get(key)
            if body is None:
                continue
            if body.get("request", {}).get("kernel") != kernel:
                continue
            if body.get("machine_spec") != machine_spec:
                continue
            donor_problem = body.get("request", {}).get("problem") or {}
            distance = 0.0
            for dim in set(problem) | set(donor_problem):
                a = max(1, int(problem.get(dim, 1)))
                b = max(1, int(donor_problem.get(dim, 1)))
                distance += abs(math.log2(a) - math.log2(b))
            if best is None or (distance, key) < (best[0], best[1]):
                best = (distance, key, body)
        if best is None:
            return None
        return best[1], best[2]
