"""Self-validating storage records: checksum + format envelope.

Every persistent store in this repo (the disk result cache, the corpus
index, the serve request store, ranker artifacts) writes small JSON artifacts with an atomic
write-to-temp + rename.  Atomicity protects against a crash *between*
our own syscalls — it does not protect against a filesystem that lies: a
torn page after power loss, a bit flip on a worn disk, a partial copy of
``results/`` between hosts, or a concurrent writer on a filesystem whose
rename is not actually atomic.  Those faults produce an entry that
*parses* (or almost parses) but is wrong, and a wrong cache entry is far
worse than a missing one.

The fix is the standard artifact-store discipline: each record is sealed
in an envelope that carries a format version, a kind tag, and a SHA-256
of the canonical payload bytes, all verified on read:

```json
{"format": 1, "kind": "cache-entry", "sha256": "…", "body": {…}}
```

``seal_record`` produces the envelope text; ``open_record`` verifies and
returns the body, raising :class:`RecordError` on any mismatch — a torn
write, a flipped bit, an entry of the wrong kind dropped into the wrong
store, or a format this code does not speak.  Callers decide what a bad
record means for them (the cache treats it as a miss and quarantines the
file; a ranker artifact refuses to load) — this module only
guarantees that corruption is *detected*, never silently served.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

__all__ = [
    "RECORD_FORMAT",
    "RecordError",
    "StorageError",
    "is_sealed",
    "open_record",
    "seal_record",
]

#: version of the envelope itself (not of any store's body payload)
RECORD_FORMAT = 1


class StorageError(Exception):
    """Base class of storage-integrity failures (lock timeouts, corrupt
    records, refused resumes).  The CLI turns these into clean errors."""


class RecordError(StorageError):
    """A sealed record failed validation: torn, tampered, mismatched kind
    or an unknown envelope format."""


def _canonical(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def body_checksum(body: Dict[str, Any]) -> str:
    """SHA-256 (hex) of the body's canonical JSON projection."""
    return hashlib.sha256(_canonical(body)).hexdigest()


def seal_record(kind: str, body: Dict[str, Any]) -> str:
    """The envelope text for one record: version + kind + checksum + body.

    Keys are sorted and the body is round-tripped through JSON, so the
    checksum is computed over exactly the bytes a reader will re-derive.
    """
    if not isinstance(body, dict):
        raise TypeError(f"record body must be a dict, got {type(body).__name__}")
    envelope = {
        "format": RECORD_FORMAT,
        "kind": kind,
        "sha256": body_checksum(body),
        "body": body,
    }
    return json.dumps(envelope, sort_keys=True) + "\n"


def is_sealed(payload: Any) -> bool:
    """Whether a parsed JSON value looks like a sealed envelope (used by
    readers that also accept their legacy, pre-checksum format)."""
    return (
        isinstance(payload, dict)
        and "format" in payload
        and "sha256" in payload
        and "body" in payload
    )


def open_record(raw: str, kind: str) -> Dict[str, Any]:
    """Verify one sealed record and return its body.

    Raises :class:`RecordError` when the text is not valid JSON, the
    envelope format is unknown, the kind tag does not match, or the
    checksum disagrees with the body — i.e. whenever the caller must not
    trust the contents.
    """
    try:
        payload = json.loads(raw)
    except ValueError as error:
        raise RecordError(f"unparsable record ({error})") from None
    if not is_sealed(payload):
        raise RecordError("not a sealed record (missing envelope fields)")
    if payload["format"] != RECORD_FORMAT:
        raise RecordError(
            f"unknown record format {payload['format']!r} "
            f"(this code speaks {RECORD_FORMAT})"
        )
    if payload.get("kind") != kind:
        raise RecordError(
            f"record kind {payload.get('kind')!r} found where {kind!r} expected"
        )
    body = payload["body"]
    if not isinstance(body, dict):
        raise RecordError("record body is not an object")
    checksum = body_checksum(body)
    if payload["sha256"] != checksum:
        raise RecordError(
            f"checksum mismatch (stored {str(payload['sha256'])[:12]}…, "
            f"computed {checksum[:12]}…): torn write or corruption"
        )
    return body
