"""``repro doctor``: scan and repair the persistent stores.

After a crash, an out-of-space incident, or a chaos run, the stores can
be left with stranded ``.tmp-*`` files, leftover lockfiles, torn or
corrupt entries, and (for the corpus) an index out of sync with its
blobs.  None of that is fatal — every store degrades gracefully — but
it costs: corrupt cache entries re-simulate on every run, orphan temps
accumulate, a corrupt corpus index hides traces.

The doctor walks each store with the *same validation the store itself
uses on read* (cache entry decode, corpus index + blob content-address
check), reports per-store
entry/ok/corrupt/quarantined/orphan-tmp/stale-lock counts, and with
``repair=True`` makes the store pristine again:

- corrupt entries move to ``<store>/quarantine/`` (evidence preserved);
- orphaned ``.tmp-*`` files and acquirable (stale) lockfiles are
  removed;
- the corpus index is rebuilt from the valid trace blobs — the index is
  derived state, the blobs are the truth.

A second scan after a repair must come back clean; the chaos CI job and
``tests/test_storage.py`` assert exactly that.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .locks import lock_is_stale, remove_stale_lock
from .quarantine import QUARANTINE_DIR, quarantine_file
from .records import RecordError

#: everything a store validator raises for content that parses but must
#: not be trusted: RecordError for sealed-envelope failures (checksum or
#: kind mismatch on valid JSON), the rest for structural damage.
_CORRUPT_ERRORS = (RecordError, ValueError, KeyError, TypeError)

__all__ = ["DoctorReport", "StoreReport", "run_doctor"]

#: temp-file prefixes ever used by the stores (current discipline plus
#: the corpus index's pre-storage-layer spelling)
_TMP_PREFIXES = (".tmp-", ".index-")


def _is_orphan_tmp(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in _TMP_PREFIXES)


def _is_lockfile(name: str) -> bool:
    return name == ".lock" or name.endswith(".lock")


@dataclass
class StoreReport:
    """Scan result for one store directory."""

    name: str
    path: str
    present: bool = True
    entries: int = 0
    ok: int = 0
    corrupt: int = 0
    quarantined: int = 0
    orphan_tmp: int = 0
    stale_locks: int = 0
    #: human-readable "<file>: <reason>" lines for everything not ok
    problems: List[str] = field(default_factory=list)
    #: repair actions taken (empty without ``repair=True``)
    repairs: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """No corrupt entries, no orphan temps, no stale locks, and no
        other outstanding problems (unreadable files, index drift).

        Quarantined files don't count against health: quarantine *is*
        the handled state (the evidence folder of past repairs).
        """
        return (
            self.corrupt == 0
            and self.orphan_tmp == 0
            and self.stale_locks == 0
            and not self.problems
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "present": self.present,
            "entries": self.entries,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "orphan_tmp": self.orphan_tmp,
            "stale_locks": self.stale_locks,
            "healthy": self.healthy,
            "problems": list(self.problems),
            "repairs": list(self.repairs),
        }

    def describe(self) -> str:
        if not self.present:
            return f"{self.name} {self.path}: not present (nothing to check)"
        bits = [
            f"{self.entries} entries",
            f"{self.ok} ok",
            f"{self.corrupt} corrupt",
            f"{self.quarantined} quarantined",
            f"{self.orphan_tmp} orphan tmp",
            f"{self.stale_locks} stale locks",
        ]
        return f"{self.name} {self.path}: " + ", ".join(bits)


@dataclass
class DoctorReport:
    """The combined scan across every store."""

    stores: List[StoreReport]
    repaired: bool = False

    @property
    def healthy(self) -> bool:
        return all(store.healthy for store in self.stores)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "healthy": self.healthy,
            "repaired": self.repaired,
            "stores": {store.name: store.as_dict() for store in self.stores},
        }

    def describe(self) -> str:
        lines = ["repro doctor — storage integrity report"]
        for store in self.stores:
            lines.append("  " + store.describe())
            for problem in store.problems:
                lines.append(f"    ! {problem}")
            for repair in store.repairs:
                lines.append(f"    * {repair}")
        if self.healthy:
            verdict = "healthy" if not self.repaired else "healthy (after repair)"
        elif self.repaired:
            verdict = "PROBLEMS REMAIN after repair"
        else:
            verdict = "PROBLEMS FOUND (re-run with --repair to fix)"
        lines.append(f"status: {verdict}")
        return "\n".join(lines)


# -- shared sweeps ------------------------------------------------------


def _sweep_housekeeping(report: StoreReport, root: Path, repair: bool) -> None:
    """Count (and with repair, remove) orphan temps and stale locks, and
    count what's already in quarantine."""
    for file in sorted(root.rglob("*")):
        if not file.is_file() or QUARANTINE_DIR in file.relative_to(root).parts:
            continue
        if _is_orphan_tmp(file.name):
            report.orphan_tmp += 1
            report.problems.append(f"{file}: orphaned temp file")
            if repair:
                try:
                    file.unlink()
                    report.orphan_tmp -= 1
                    report.problems.pop()
                    report.repairs.append(f"removed orphan temp {file}")
                except OSError:
                    pass
        elif _is_lockfile(file.name):
            if repair:
                # remove_stale_lock unlinks while holding the flock, so a
                # lock a live process grabs between scan and repair is
                # left alone (it is simply no longer stale).
                if remove_stale_lock(file):
                    report.repairs.append(f"removed stale lock {file}")
            elif lock_is_stale(file):
                report.stale_locks += 1
                report.problems.append(f"{file}: stale lockfile")
    qdir = root / QUARANTINE_DIR
    if qdir.is_dir():
        report.quarantined = sum(
            1
            for f in qdir.iterdir()
            if f.is_file() and f.name != "log.jsonl"
        )


def _quarantine_corrupt(
    report: StoreReport, root: Path, file: Path, reason: str, repair: bool
) -> None:
    report.corrupt += 1
    report.problems.append(f"{file}: {reason}")
    if repair:
        target = quarantine_file(root, file, reason)
        if target is not None:
            report.corrupt -= 1
            report.problems.pop()
            report.quarantined += 1
            report.repairs.append(f"quarantined {file} -> {target}")


# -- per-store scans ----------------------------------------------------


def scan_cache(root, repair: bool = False) -> StoreReport:
    """Validate every disk-cache entry with the cache's own decoder."""
    from repro.eval.cache import ResultCache

    root = Path(root)
    report = StoreReport("cache", str(root))
    if not root.is_dir():
        report.present = False
        return report
    decoder = ResultCache(root)
    for shard in sorted(root.iterdir()):
        if not shard.is_dir() or shard.name == QUARANTINE_DIR:
            continue
        for file in sorted(shard.glob("*.json")):
            if _is_orphan_tmp(file.name):
                continue  # counted by the housekeeping sweep
            report.entries += 1
            try:
                raw = file.read_text()
                decoder._decode(raw, file.stem)
            except OSError as error:
                report.problems.append(f"{file}: unreadable ({error})")
                continue
            except _CORRUPT_ERRORS as error:
                _quarantine_corrupt(report, root, file, str(error), repair)
                continue
            report.ok += 1
    _sweep_housekeeping(report, root, repair)
    return report


def scan_corpus(root, repair: bool = False) -> StoreReport:
    """Check the corpus index and every blob's content address.

    The blobs are the ground truth: with ``repair=True`` any index
    problem (corrupt, missing entries, entries whose blob vanished) is
    fixed by rebuilding the index from the valid blobs, reusing the
    surviving entries' provenance fields where the old index is
    readable.
    """
    from repro.obs.corpus import Corpus, trace_id
    from repro.obs.reader import read_trace

    root = Path(root)
    report = StoreReport("corpus", str(root))
    if not root.is_dir():
        report.present = False
        return report
    corpus = Corpus(str(root))

    old_entries: Dict[str, Dict[str, Any]] = {}
    index_corrupt = False
    index_problems: List[str] = []
    index_path = Path(corpus.index_path)
    if index_path.exists():
        report.entries += 1
        try:
            index = Corpus.decode_index_text(index_path.read_text())
            if index.get("version") != Corpus.INDEX_VERSION:
                raise ValueError(
                    f"index version {index.get('version')!r} is not "
                    f"{Corpus.INDEX_VERSION}"
                )
            old_entries = dict(index["traces"])
            report.ok += 1
        except _CORRUPT_ERRORS as error:
            index_corrupt = True
            _quarantine_corrupt(report, root, index_path, str(error), repair)

    rebuilt: Dict[str, Dict[str, Any]] = {}
    traces_dir = Path(corpus.traces_dir)
    needs_rebuild = index_corrupt
    for file in sorted(traces_dir.glob("*.trace.jsonl")) if traces_dir.is_dir() else []:
        report.entries += 1
        tid = file.name[: -len(".trace.jsonl")]
        try:
            events = read_trace(str(file)).events
        except OSError as error:
            report.problems.append(f"{file}: unreadable ({error})")
            continue
        actual = trace_id(events) if events else None
        if actual != tid:
            reason = (
                "no readable trace events"
                if actual is None
                else f"content address mismatch (content hashes to {actual})"
            )
            _quarantine_corrupt(report, root, file, reason, repair)
            needs_rebuild = True
            continue
        report.ok += 1
        entry = old_entries.get(tid)
        if entry is None:
            needs_rebuild = True
            index_problems.append(f"{file}: blob not in index")
            entry = Corpus.entry_for(events, tid, file.name)
        rebuilt[tid] = entry
    missing = sorted(set(old_entries) - set(rebuilt))
    for tid in missing:
        needs_rebuild = True
        index_problems.append(f"{corpus.trace_path(tid)}: indexed trace has no blob")

    if repair and needs_rebuild:
        corpus._index = {"version": Corpus.INDEX_VERSION, "traces": rebuilt}
        try:
            corpus._save_index()
        except OSError as error:
            report.problems.append(f"{index_path}: rebuild failed ({error})")
        else:
            # the rebuild resolves every index-drift problem gathered above
            index_problems = []
            report.repairs.append(
                f"rebuilt index from {len(rebuilt)} valid trace blobs"
            )
    report.problems.extend(index_problems)
    _sweep_housekeeping(report, root, repair)
    return report


def run_doctor(
    cache: Optional[str] = None,
    corpus: Optional[str] = None,
    repair: bool = False,
) -> DoctorReport:
    """Scan (and optionally repair) the result cache and the trace corpus.

    ``None`` paths fall back to the conventional locations under
    ``results/``; a store whose directory does not exist is reported as
    absent and healthy.
    """
    cache = cache if cache is not None else os.path.join("results", "cache")
    corpus = corpus if corpus is not None else os.path.join("results", "corpus")
    return DoctorReport(
        stores=[
            scan_cache(cache, repair=repair),
            scan_corpus(corpus, repair=repair),
        ],
        repaired=repair,
    )
