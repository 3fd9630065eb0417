"""Crash-safe checkpointing for the empirical searches.

A multi-hour tuning run that dies at 95% used to lose everything: the
engine's disk cache kept the *simulations*, but the search's position —
which variants were screened, which stages finished, the best-so-far —
lived only in process memory.  :class:`SearchJournal` fixes that: searches
record each completed stage into a single JSON file with atomic writes
(write-to-temp + ``os.replace``, the same discipline as the result
cache), so a ``kill -9`` at any instant leaves either the previous
consistent journal or the next one — never a torn file.

On resume, a search asks the journal for each stage before computing it.
Because every search in this repo is deterministic, replaying recorded
stage results and re-running the remainder reaches the byte-identical
best of an uninterrupted run (verified by the kill-and-resume tests).

A journal is *scoped*: the scope dict fingerprints the search (kernel,
machine, problem, config...).  Loading a journal whose scope differs —
or whose version this code does not speak — silently starts fresh
(``origin == "discarded"``), so a stale checkpoint can never graft one
search's state onto another.  A journal that is *corrupt* (torn,
truncated, checksum mismatch) is a different situation entirely: the
stage results it held may be unrecoverable work, so instead of silently
discarding them the load backs the file up to ``<dir>/quarantine/`` and
raises :class:`JournalCorruptError` — "refusing to resume" beats
quietly redoing hours of search.  Saves are sealed, checksummed records
written under an advisory file lock (see :mod:`repro.storage`), so
concurrent processes pointed at one checkpoint directory cannot
interleave a torn journal in the first place.

Serialization helpers for the search-specific bits (prefetch sites, the
``inf`` cycles of infeasible points) live here too, so every search
encodes them the same way.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.storage import (
    FileLock,
    LockTimeout,
    RecordError,
    StorageError,
    is_sealed,
    open_record,
    quarantine_file,
    write_sealed,
)
from repro.storage.records import RECORD_FORMAT

__all__ = [
    "JournalCorruptError",
    "JournalForeign",
    "SearchJournal",
    "validate_journal",
    "encode_cycles",
    "decode_cycles",
    "encode_prefetch",
    "decode_prefetch",
]

_FORMAT_VERSION = 1
#: kind tag of sealed journal records (see repro.storage.records)
JOURNAL_RECORD_KIND = "search-journal"
#: how long a save waits for the journal lock before giving up (counted,
#: non-fatal — the in-memory search state is still right)
_JOURNAL_LOCK_TIMEOUT = 5.0


class JournalCorruptError(StorageError):
    """An existing journal failed integrity validation on resume.

    The corrupt file has already been backed up (``backup`` names where);
    deleting or repairing it and re-running with ``--resume`` — or just
    re-running without — are both safe.
    """

    def __init__(self, path: Path, backup: Optional[Path], reason: str) -> None:
        where = backup if backup is not None else path
        super().__init__(
            f"journal corrupt, refusing to resume (backup at {where}): {reason}"
        )
        self.path = path
        self.backup = backup


class SearchJournal:
    """Atomic on-disk journal of completed search stages.

    ``get(section, key)`` / ``record(section, key, value)`` store plain
    JSON values under two-level names (e.g. section ``"variant:v9"``, key
    ``"tiling"``).  Every ``record`` persists the whole journal
    atomically, so the file is always a consistent prefix of the search.
    """

    def __init__(
        self,
        path: Union[str, Path],
        scope: Mapping[str, Any],
        resume: bool = True,
        fs_faults=None,
    ) -> None:
        self.path = Path(path)
        self.scope = _jsonable_scope(scope)
        #: optional seeded fault plan (repro.faults.FsFaultPlan) applied
        #: to every journal save
        self.fs_faults = fs_faults
        self._sections: Dict[str, Dict[str, Any]] = {}
        #: how the journal started: "fresh", "resumed" or "discarded"
        #: (an existing file was usable by a different search, or written
        #: by a version of this code we don't speak)
        self.origin = "fresh"
        #: saves that failed to persist (write error or lock timeout);
        #: non-fatal, but visible to callers that want to warn
        self.save_failures = 0
        if resume:
            self._load()

    # -- access ----------------------------------------------------------
    def get(self, section: str, key: str) -> Optional[Any]:
        return self._sections.get(section, {}).get(key)

    def section(self, section: str) -> Dict[str, Any]:
        """A copy of one section (e.g. every recorded annealing step)."""
        return dict(self._sections.get(section, {}))

    def record(self, section: str, key: str, value: Any) -> None:
        """Store one completed stage and persist the journal atomically."""
        self._sections.setdefault(section, {})[key] = value
        self._save()

    @property
    def stages_recorded(self) -> int:
        return sum(len(entries) for entries in self._sections.values())

    def describe(self) -> str:
        return (
            f"{self.path} ({self.origin}, {self.stages_recorded} stages, "
            f"{len(self._sections)} sections)"
        )

    # -- persistence -----------------------------------------------------
    def _load(self) -> None:
        try:
            raw = self.path.read_text()
        except OSError:
            return  # no checkpoint yet: fresh start
        try:
            body = validate_journal(raw)
        except JournalForeign:
            # Parsed fine but isn't for us (future version): losing
            # nothing of ours, start fresh.
            self.origin = "discarded"
            return
        except (RecordError, ValueError, KeyError, TypeError) as error:
            # Torn, truncated or checksum-failed: the recorded stages may
            # be real lost work.  Preserve the evidence and refuse to
            # pretend this was a clean fresh start.
            backup = quarantine_file(self.path.parent, self.path, f"journal: {error}")
            raise JournalCorruptError(self.path, backup, str(error)) from None
        if body.get("scope") != self.scope:
            # A checkpoint for a different search (other kernel, machine,
            # problem or config): using it would be worse than losing it.
            self.origin = "discarded"
            return
        self._sections = body["sections"]
        self.origin = "resumed"

    def _save(self) -> None:
        body = {
            "version": _FORMAT_VERSION,
            "scope": self.scope,
            "sections": self._sections,
        }
        lock = FileLock(
            self.path.with_name(f".{self.path.name}.lock"),
            timeout=_JOURNAL_LOCK_TIMEOUT,
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with lock:
                write_sealed(
                    self.path,
                    JOURNAL_RECORD_KIND,
                    body,
                    fs_faults=self.fs_faults,
                    label=f"journal/{self.path.stem}",
                )
        except (OSError, LockTimeout):
            # Journaling is belt-and-braces: failing to persist must not
            # fail the search itself (the in-memory state is still right).
            self.save_failures += 1


class JournalForeign(Exception):
    """Journal content is recognizably from a *newer* format, not broken
    — the loader starts fresh instead of refusing."""


def validate_journal(raw: str) -> Dict[str, Any]:
    """Parse + integrity-check journal file text, returning its body.

    Raises :class:`JournalForeign` for content of a version this code
    does not speak, and ``ValueError``/:class:`RecordError` for content
    that is simply broken.  Shared by the loader and ``repro doctor``.
    """
    payload = json.loads(raw)  # ValueError propagates: corrupt
    if is_sealed(payload):
        if payload.get("format") != RECORD_FORMAT:
            raise JournalForeign()
        body = open_record(raw, JOURNAL_RECORD_KIND)
    elif isinstance(payload, dict):
        # legacy pre-checksum journal: still resumable so an upgrade
        # mid-search doesn't throw away recorded stages
        body = payload
    else:
        raise ValueError("journal is not an object")
    version = body.get("version")
    if version != _FORMAT_VERSION:
        if isinstance(version, int) and version > _FORMAT_VERSION:
            raise JournalForeign()
        raise ValueError(f"unknown journal version {version!r}")
    sections = body.get("sections")
    if not isinstance(sections, dict) or not all(
        isinstance(v, dict) for v in sections.values()
    ):
        raise ValueError("malformed journal sections")
    return body


def _jsonable_scope(scope: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a scope through JSON so load-time comparison is exact
    (tuples become lists, ints stay ints...)."""
    return json.loads(json.dumps(dict(scope), sort_keys=True))


# -- value codecs (shared by every search) -------------------------------

def encode_cycles(cycles: float) -> Optional[float]:
    """inf (infeasible/failed point) encodes as null — JSON has no inf."""
    return None if math.isinf(cycles) else cycles


def decode_cycles(value: Optional[float]) -> float:
    return math.inf if value is None else float(value)


def encode_prefetch(prefetch: Mapping[Any, int]) -> Dict[str, int]:
    """``{PrefetchSite(A, K): 2}`` → ``{"A@K": 2}`` (the trace notation)."""
    return {f"{site.array}@{site.loop}": int(d) for site, d in prefetch.items()}


def decode_prefetch(encoded: Mapping[str, int]) -> Dict[Any, int]:
    from repro.core.variants import PrefetchSite

    out: Dict[Any, int] = {}
    for name, distance in encoded.items():
        array, _, loop = name.partition("@")
        out[PrefetchSite(array, loop)] = int(distance)
    return out
