"""Trace corpus: a content-addressed, versioned index of search traces.

Every search already emits a deterministic JSONL trace (``repro.obs``);
this module turns those passive artifacts into an accumulating dataset.
A :class:`Corpus` is a directory (default ``results/corpus/``) holding

* ``traces/<id>.trace.jsonl`` — the ingested trace files, stored under a
  content-addressed id: the SHA-256 (truncated to 16 hex chars) of the
  trace's *canonical projection* (:func:`repro.obs.reader.canonical`),
  so the same search re-recorded at a different ``-j``, with or without
  speculation, or at another wall-clock speed dedups to one entry;
* ``index.json`` — one entry per trace with its schema version, per-
  search identity (kernel/machine/problem) and headline counts, written
  with sorted keys so the index itself is byte-deterministic.

Ingest validates every event against the schema (``validate_event``),
applies the schema-version compatibility rule and tolerates truncated
trailing lines (:func:`repro.obs.reader.read_trace`) — a crash-cut trace
is ingestable, with its ``skipped_lines`` recorded in the index.

The read side is :func:`flatten_trace`: the per-candidate table
(bindings, measured cycles, per-level misses, stage, cache/full/delta
outcome) that the learned ranker (``repro model train|eval``,
:mod:`repro.analysis.learned`) reads instead of re-parsing raw spans.  Rows
derive only from canonical (timing-free) event content, so the table is
byte-identical across job counts, with or without speculation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.reader import (
    TraceLoad,
    canonical,
    eval_events,
    read_trace,
    span_nodes,
    trace_meta,
)
from repro.storage import (
    FileLock,
    StorageError,
    is_sealed,
    open_record,
    quarantine_file,
    write_sealed,
)

__all__ = [
    "Corpus",
    "IngestResult",
    "ROW_COLUMNS",
    "flatten_trace",
    "rows_to_csv",
    "rows_to_jsonl",
    "trace_id",
]

#: fixed column order of the flattened per-candidate table
ROW_COLUMNS = (
    "trace",       # corpus trace id (or a caller-supplied label)
    "search",      # search span id within the trace (one trace may hold several)
    "kernel",      # kernel name from the enclosing search span
    "machine",     # resolved machine name from the enclosing search span
    "machine_spec",  # full-spec hash ("" in pre-1.2 traces): training joins
                     # on name AND spec, never silently mixing machines
    "problem",     # problem bindings, e.g. {"N": 24}
    "stage",       # innermost enclosing stage name ("" when outside any stage)
    "eval",        # index of this eval event within the trace's eval stream
    "variant",     # variant name (v1, v2, ...)
    "values",      # tiling/unroll parameter bindings
    "prefetch",    # prefetch distances, {"A@K": 2} form
    "pads",        # padding bindings
    "source",      # sim | memory | disk
    "status",      # ok | infeasible | transient
    "kind",        # cache | full | delta (how the result was obtained)
    "cycles",      # measured cycles (None when infeasible/transient)
    "machine_seconds",
    "loads",
    "l1_misses",
    "l2_misses",
    "tlb_misses",
)

#: columns whose values are JSON objects (encoded canonically in CSV)
_JSON_COLUMNS = ("problem", "values", "prefetch", "pads")


def trace_id(events: List[Dict[str, Any]]) -> str:
    """Content address of a trace: SHA-256 of its canonical projection.

    The projection strips timestamps, durations and pipeline-scheduling
    metrics, so two recordings of the same search — any ``-j``, with or
    without speculation — hash to the same id.
    """
    digest = hashlib.sha256()
    for event in canonical(events):
        digest.update(
            json.dumps(event, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def flatten_trace(
    events: List[Dict[str, Any]], trace: str = ""
) -> List[Dict[str, Any]]:
    """The per-candidate table of one trace, in evaluation order.

    One row per ``eval`` event, columns :data:`ROW_COLUMNS`.  Search
    identity (kernel, machine, problem) comes from the enclosing
    ``search`` span; ``stage`` from the innermost enclosing stage span.
    ``kind`` folds the how-obtained story into one field: ``cache`` for
    memory/disk hits, else ``delta`` when the eval event carries the
    consumption-order delta mark (schema ≥ 1.1), else ``full``.

    Only canonical event content is read, so the rows are deterministic
    across job counts, with or without speculation.
    """
    spans = {
        node.id: node for root in span_nodes(events) for node in root.walk()
    }
    rows: List[Dict[str, Any]] = []
    for index, event in enumerate(eval_events(events)):
        attrs = event.get("attrs", {})
        span = spans.get(event.get("span"))
        search = span.enclosing("search") if span else None
        search_attrs = search.attrs if search else {}
        stage = span.enclosing("stage") if span else None
        source = attrs.get("source", "sim")
        if attrs.get("transient"):
            status = "transient"
        elif attrs.get("cycles") is None:
            status = "infeasible"
        else:
            status = "ok"
        if source != "sim":
            kind = "cache"
        elif attrs.get("delta"):
            kind = "delta"
        else:
            kind = "full"
        counters = attrs.get("counters") or {}
        rows.append({
            "trace": trace,
            "search": search.id if search else "",
            "kernel": search_attrs.get("kernel", ""),
            "machine": search_attrs.get("machine", ""),
            "machine_spec": search_attrs.get("machine_spec", ""),
            "problem": dict(attrs.get("problem", {})),
            "stage": stage.attrs.get("stage", "") if stage else "",
            "eval": index,
            "variant": attrs.get("variant", ""),
            "values": dict(attrs.get("values", {})),
            "prefetch": dict(attrs.get("prefetch", {})),
            "pads": dict(attrs.get("pads", {})),
            "source": source,
            "status": status,
            "kind": kind,
            "cycles": attrs.get("cycles"),
            "machine_seconds": attrs.get("machine_seconds"),
            "loads": counters.get("loads"),
            "l1_misses": counters.get("l1_misses"),
            "l2_misses": counters.get("l2_misses"),
            "tlb_misses": counters.get("tlb_misses"),
        })
    return rows


def _cell(column: str, value: Any) -> str:
    if value is None:
        return ""
    if column in _JSON_COLUMNS:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def rows_to_csv(rows: Iterable[Dict[str, Any]]) -> str:
    """CSV of the flattened table: fixed columns, canonical JSON cells,
    ``\\n`` line endings — byte-stable for a given row list."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ROW_COLUMNS)
    for row in rows:
        writer.writerow([_cell(col, row.get(col)) for col in ROW_COLUMNS])
    return out.getvalue()


def rows_to_jsonl(rows: Iterable[Dict[str, Any]]) -> str:
    """JSONL of the flattened table (sorted keys — byte-stable)."""
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    )


@dataclass
class IngestResult:
    """Outcome of one :meth:`Corpus.ingest` call."""

    id: str
    new: bool                  # False: content-identical trace already indexed
    entry: Dict[str, Any]      # the index entry (fresh or pre-existing)
    warnings: List[str]        # schema-version warnings from the reader


class Corpus:
    """A directory of content-addressed traces plus their index.

    The index is a sealed, checksummed record (see :mod:`repro.storage`)
    rewritten atomically on every mutation, and every mutation happens
    under an advisory cross-process lock with the index re-read inside
    the critical section — so concurrent ingesters into one corpus never
    lose each other's entries.  A corrupt index is backed up to
    ``<root>/quarantine/`` and refused with a pointer at
    ``repro doctor --repair``, which rebuilds it from the trace blobs.
    """

    INDEX_VERSION = 1
    #: kind tag of the sealed index record (see repro.storage.records)
    INDEX_RECORD_KIND = "corpus-index"

    def __init__(self, root: str = os.path.join("results", "corpus"), fs_faults=None):
        self.root = str(root)
        self.traces_dir = os.path.join(self.root, "traces")
        #: optional seeded fault plan (repro.faults.FsFaultPlan) applied
        #: to index writes
        self.fs_faults = fs_faults
        self._index: Optional[Dict[str, Any]] = None

    # -- index persistence ----------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, ".lock")

    def _load_index(self) -> Dict[str, Any]:
        if self._index is None:
            try:
                with open(self.index_path) as handle:
                    raw = handle.read()
            except FileNotFoundError:
                self._index = {"version": self.INDEX_VERSION, "traces": {}}
                return self._index
            try:
                index = self.decode_index_text(raw)
            except (StorageError, ValueError, KeyError, TypeError) as error:
                backup = quarantine_file(
                    self.root, self.index_path, f"corpus index: {error}"
                )
                where = backup if backup is not None else self.index_path
                raise StorageError(
                    f"{self.index_path}: corpus index corrupt ({error}); "
                    f"moved to {where} — run 'repro doctor --repair' to "
                    f"rebuild the index from the stored traces"
                ) from None
            if index.get("version") != self.INDEX_VERSION:
                raise ValueError(
                    f"{self.index_path}: corpus index version "
                    f"{index.get('version')!r} is not "
                    f"{self.INDEX_VERSION} (rebuild the corpus)"
                )
            self._index = index
        return self._index

    @classmethod
    def decode_index_text(cls, raw: str) -> Dict[str, Any]:
        """Pure decode + integrity check of index file text (no side
        effects — ``repro doctor`` scans through this too)."""
        payload = json.loads(raw)
        if is_sealed(payload):
            index = open_record(raw, cls.INDEX_RECORD_KIND)
        elif isinstance(payload, dict):
            # legacy pre-checksum index: readable so an upgrade keeps
            # the accumulated corpus
            index = payload
        else:
            raise ValueError("corpus index is not an object")
        if not isinstance(index.get("traces"), dict):
            raise ValueError("corpus index has no traces table")
        return index

    def _save_index(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        write_sealed(
            self.index_path,
            self.INDEX_RECORD_KIND,
            self._load_index(),
            fs_faults=self.fs_faults,
            label="corpus/index",
        )

    # -- ingest ----------------------------------------------------------

    def ingest(self, path: str) -> IngestResult:
        """Validate and store one trace file; dedup by content address.

        Every event is schema-validated (the consecutive-``seq`` check is
        relaxed once a truncated line was skipped); the stored bytes are
        the original file's — the canonical projection only names it.

        The whole check-blob-index sequence runs under the corpus lock
        with the index re-read inside it, so concurrent ingesters can't
        lose each other's entries to a read-modify-write race; the blob
        itself is written atomically (temp + rename) so a crashed ingest
        never leaves a truncated trace behind.
        """
        load: TraceLoad = read_trace(path, validate=True)
        if not load.events:
            raise ValueError(f"{path}: no readable trace events")
        tid = trace_id(load.events)
        os.makedirs(self.root, exist_ok=True)
        with FileLock(self.lock_path):
            self._index = None  # another process may have ingested since
            index = self._load_index()
            existing = index["traces"].get(tid)
            if existing is not None:
                return IngestResult(tid, False, existing, list(load.warnings))
            entry = self.entry_for(load.events, tid, os.path.basename(str(path)))
            entry["skipped_lines"] = load.skipped_lines
            os.makedirs(self.traces_dir, exist_ok=True)
            with open(path, "rb") as src:
                data = src.read()
            fd, tmp = tempfile.mkstemp(dir=self.traces_dir, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as dst:
                    dst.write(data)
                os.replace(tmp, self.trace_path(tid))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            index["traces"][tid] = entry
            self._save_index()
        return IngestResult(tid, True, entry, list(load.warnings))

    @classmethod
    def entry_for(
        cls, events: List[Dict[str, Any]], tid: str, source_name: str
    ) -> Dict[str, Any]:
        """The index entry describing one trace's events.

        Shared by :meth:`ingest` and the doctor's index rebuild, so a
        rebuilt index is field-identical to an incrementally-grown one
        (``skipped_lines`` excepted: the blob was already cleaned at
        original ingest, so a rebuild counts 0).
        """
        meta = trace_meta(events)
        rows = flatten_trace(events, tid)
        return {
            "id": tid,
            "schema": meta.get("schema"),
            "ingested_from": source_name,
            "searches": [
                {
                    "kernel": search.attrs.get("kernel", ""),
                    "machine": search.attrs.get("machine", ""),
                    "problem": dict(search.attrs.get("problem", {})),
                }
                for root in span_nodes(events)
                for search in root.walk()
                if search.name == "search"
            ],
            "events": len(events),
            "evals": len(rows),
            "sims": sum(1 for r in rows if r["source"] == "sim"),
            "cache_hits": sum(1 for r in rows if r["kind"] == "cache"),
            "infeasible": sum(1 for r in rows if r["status"] == "infeasible"),
            "prescreen_skips": sum(
                1 for e in events
                if e.get("type") == "event"
                and e.get("name") == "prescreen_skip"
            ),
            "skipped_lines": 0,
        }

    # -- read side -------------------------------------------------------

    def trace_path(self, tid: str) -> str:
        return os.path.join(self.traces_dir, f"{tid}.trace.jsonl")

    def entries(self) -> List[Dict[str, Any]]:
        """Index entries, sorted by trace id (stable listing order)."""
        index = self._load_index()
        return [index["traces"][tid] for tid in sorted(index["traces"])]

    def load(self, tid: str) -> List[Dict[str, Any]]:
        """Events of one ingested trace (tolerant read; already validated
        at ingest)."""
        return read_trace(self.trace_path(tid)).events

    def rows(self, tid: Optional[str] = None) -> List[Dict[str, Any]]:
        """Flattened per-candidate rows: one trace, or the whole corpus
        in trace-id order."""
        if tid is not None:
            return flatten_trace(self.load(tid), tid)
        rows: List[Dict[str, Any]] = []
        for entry in self.entries():
            rows.extend(flatten_trace(self.load(entry["id"]), entry["id"]))
        return rows

    def stats(self) -> Dict[str, Any]:
        """Aggregate counts across the corpus (deterministic dict)."""
        entries = self.entries()
        per_machine: Dict[str, int] = {}
        per_kernel: Dict[str, int] = {}
        for entry in entries:
            for search in entry["searches"]:
                per_machine[search["machine"]] = (
                    per_machine.get(search["machine"], 0) + 1
                )
                per_kernel[search["kernel"]] = (
                    per_kernel.get(search["kernel"], 0) + 1
                )
        return {
            "traces": len(entries),
            "searches": sum(len(e["searches"]) for e in entries),
            "events": sum(e["events"] for e in entries),
            "evals": sum(e["evals"] for e in entries),
            "sims": sum(e["sims"] for e in entries),
            "cache_hits": sum(e["cache_hits"] for e in entries),
            "infeasible": sum(e["infeasible"] for e in entries),
            "prescreen_skips": sum(e["prescreen_skips"] for e in entries),
            "skipped_lines": sum(e["skipped_lines"] for e in entries),
            "per_kernel": {k: per_kernel[k] for k in sorted(per_kernel)},
            "per_machine": {m: per_machine[m] for m in sorted(per_machine)},
        }

    def export(self, fmt: str = "csv", tid: Optional[str] = None) -> str:
        """The flattened table as ``csv`` or ``jsonl`` text."""
        rows = self.rows(tid)
        if fmt == "csv":
            return rows_to_csv(rows)
        if fmt == "jsonl":
            return rows_to_jsonl(rows)
        raise ValueError(f"unknown export format {fmt!r} (csv|jsonl)")
