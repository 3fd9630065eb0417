"""Result cache for candidate evaluations: memory layer + on-disk layer.

Keys are the content hashes of :func:`repro.eval.keys.candidate_key`, so
the cache is safe to share between searches, processes and runs: two
entries collide only when they describe the same experiment, in which
case the stored result is the right answer by construction.

The on-disk layer (default ``results/cache/``) stores one small JSON file
per result, sharded by key prefix to keep directories small.  It is built
for *shared* use — N concurrent tune processes on one cache root — via
the :mod:`repro.storage` integrity layer:

- every entry is a sealed record (format version + SHA-256 checksum,
  verified on read), so a torn write or bit flip is detected instead of
  served as a measurement;
- writes take a per-shard advisory :class:`~repro.storage.FileLock`, so
  two processes persisting the same key never race the rename;
- a corrupt entry is moved to ``<cache>/quarantine/`` (evidence kept for
  ``repro doctor``), counted, and treated as a miss, so a rotting cache
  degrades to re-simulation instead of crashing or poisoning results.

The storage layer is imported only by a cache that has a directory: a
memory-only cache (every default engine's) runs none of it.

Failed disk writes (a full disk, a permission flip, a vanished mount) are
likewise non-fatal — the result stays in memory and the run continues —
but they are *accounted*: :attr:`ResultCache.disk_write_failures` counts
them (split by errno class: ENOSPC/EDQUOT vs other), the engine surfaces
the counts in its stats/metrics, and the first failure of each class
emits a warning naming the errno and path, so persistent storage trouble
is visible instead of silently degrading every future run to cold-cache
speed.
"""

from __future__ import annotations

import errno as _errno
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.sim.counters import Counters

__all__ = ["CachedResult", "ResultCache", "CACHE_RECORD_KIND"]

_FORMAT_VERSION = 2
#: kind tag of sealed cache entries (see repro.storage.records)
CACHE_RECORD_KIND = "cache-entry"
#: errnos reported as the "enospc" write-failure class (out of space/quota)
_ENOSPC_ERRNOS = frozenset({_errno.ENOSPC, _errno.EDQUOT})
#: how long a put waits for its shard lock before counting a write failure
_SHARD_LOCK_TIMEOUT = 5.0


@dataclass
class CachedResult:
    """One stored evaluation: cycles (inf = infeasible/failed) + counters."""

    cycles: float
    counters: Optional[Counters]


def _counters_to_jsonable(counters: Counters) -> dict:
    data = dict(counters.__dict__)
    data["cache_hits"] = list(counters.cache_hits)
    data["cache_misses"] = list(counters.cache_misses)
    return data


def _counters_from_jsonable(data: dict) -> Counters:
    fields = dict(data)
    fields["params"] = {str(k): int(v) for k, v in fields["params"].items()}
    fields["cache_hits"] = tuple(fields["cache_hits"])
    fields["cache_misses"] = tuple(fields["cache_misses"])
    return Counters(**fields)


class ResultCache:
    """Two-level (memory, disk) store of evaluation results by key."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        fs_faults=None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        #: optional seeded fault plan (repro.faults.FsFaultPlan) applied
        #: to every disk read/write of this cache instance
        self.fs_faults = fs_faults
        self._memory: Dict[str, CachedResult] = {}
        self.corrupt_entries = 0
        #: corrupt entries successfully preserved under <cache>/quarantine/
        self.quarantined_entries = 0
        #: disk entries that failed to persist (OSError on write/rename or
        #: a shard-lock timeout); the result survives in memory, but
        #: re-runs will re-simulate it
        self.disk_write_failures = 0
        #: the subset of disk_write_failures caused by ENOSPC/EDQUOT
        self.disk_write_failures_enospc = 0
        self._warned_classes: Set[str] = set()

    # -- lookup ---------------------------------------------------------
    def get_memory(self, key: str) -> Optional[CachedResult]:
        return self._memory.get(key)

    def __contains__(self, key: str) -> bool:
        """Whether either layer holds ``key``.  A probe only: a disk entry
        is neither read, verified nor promoted to memory, so probing never
        changes which layer a later :meth:`get_memory`/:meth:`get_disk`
        lookup is answered from."""
        if key in self._memory:
            return True
        return self.path is not None and self._file_for(key).exists()

    def get_disk(self, key: str) -> Optional[CachedResult]:
        """Read a disk entry; a corrupted entry counts as a miss and is
        quarantined so the next write repairs it and the evidence keeps."""
        if self.path is None:
            return None
        from repro.storage import RecordError, quarantine_file
        from repro.storage.atomic import corrupt_text

        file = self._file_for(key)
        try:
            raw = file.read_text()
        except OSError:
            return None
        if self.fs_faults is not None:
            if self.fs_faults.decide("read", self._label_for(key)) == "corrupt_read":
                raw = corrupt_text(raw)
        try:
            result = self._decode(raw, key)
        except (RecordError, ValueError, KeyError, TypeError) as error:
            self.corrupt_entries += 1
            if quarantine_file(self.path, file, f"cache entry {key}: {error}"):
                self.quarantined_entries += 1
            else:
                try:
                    file.unlink()
                except OSError:
                    pass
            return None
        self._memory[key] = result
        return result

    # -- store ----------------------------------------------------------
    def put(self, key: str, result: CachedResult) -> None:
        self._memory[key] = result
        if self.path is None:
            return
        from repro.storage import FileLock, LockTimeout, write_sealed

        file = self._file_for(key)
        body = {
            "version": _FORMAT_VERSION,
            "key": key,
            "cycles": None if math.isinf(result.cycles) else result.cycles,
            "counters": (
                _counters_to_jsonable(result.counters)
                if result.counters is not None
                else None
            ),
        }
        try:
            file.parent.mkdir(parents=True, exist_ok=True)
            with FileLock(file.parent / ".lock", timeout=_SHARD_LOCK_TIMEOUT):
                write_sealed(
                    file,
                    CACHE_RECORD_KIND,
                    body,
                    fs_faults=self.fs_faults,
                    label=self._label_for(key),
                )
        except (OSError, LockTimeout) as error:
            self._note_write_failure(error, file)

    def _note_write_failure(self, error: Exception, path: Path) -> None:
        """Count a failed disk write; warn once per errno class."""
        self.disk_write_failures += 1
        code = getattr(error, "errno", None)
        if code in _ENOSPC_ERRNOS:
            self.disk_write_failures_enospc += 1
            failure_class = "enospc"
        else:
            failure_class = "other"
        if failure_class not in self._warned_classes:
            self._warned_classes.add(failure_class)
            detail = _errno.errorcode.get(code, "no errno") if code else "no errno"
            warnings.warn(
                f"result cache at {self.path} is not persisting entries "
                f"({detail} writing {path}: {error!s}); results stay in "
                f"memory and re-runs will re-simulate (further "
                f"{failure_class}-class failures counted silently)",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- helpers --------------------------------------------------------
    def _file_for(self, key: str) -> Path:
        assert self.path is not None
        return self.path / key[:2] / f"{key}.json"

    def _label_for(self, key: str) -> str:
        return f"cache/{key[:2]}/{key}"

    def _decode(self, raw: str, key: str) -> CachedResult:
        from repro.storage import is_sealed, open_record

        payload = json.loads(raw)
        if is_sealed(payload):
            body = open_record(raw, CACHE_RECORD_KIND)
        elif isinstance(payload, dict) and payload.get("version") == 1:
            # legacy pre-checksum entry (format 1): still readable so an
            # upgrade doesn't quarantine a whole warm cache
            body = payload
        else:
            raise ValueError("unknown cache entry format")
        if body.get("version") not in (1, _FORMAT_VERSION):
            raise ValueError("unknown cache entry version")
        if body.get("key") != key:
            raise ValueError("cache entry key mismatch")
        cycles = body["cycles"]
        counters = body["counters"]
        if cycles is None:
            return CachedResult(math.inf, None)
        return CachedResult(
            float(cycles),
            _counters_from_jsonable(counters) if counters is not None else None,
        )

    def __len__(self) -> int:
        return len(self._memory)
