"""Corruption quarantine: preserve bad entries instead of deleting them.

When a store detects a record it cannot trust, unlinking it destroys
the evidence — and evidence is exactly what you want when a shared
cache starts rotting (which host wrote it? torn or tampered? one entry
or a pattern?).  ``quarantine_file`` moves the offender into
``<store>/quarantine/`` (rename, same filesystem, cheap) and appends a
reason line to ``quarantine/log.jsonl`` so ``repro doctor`` and humans
can audit what was pulled and why.

The store then degrades gracefully: the cache treats the entry as a
miss, the corpus rebuilds its index from blobs.  Nothing crashes; nothing is lost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

__all__ = ["QUARANTINE_DIR", "quarantine_file"]

QUARANTINE_DIR = "quarantine"


def quarantine_file(store_root, file, reason: str) -> Optional[Path]:
    """Move ``file`` into ``<store_root>/quarantine/`` and log why.

    Returns the quarantined path, or ``None`` if the move failed (the
    caller falls back to unlinking or leaving the file in place — the
    store must keep working regardless).  Name collisions get a numeric
    suffix so repeated corruption of the same key never overwrites
    earlier evidence.
    """
    store_root = Path(store_root)
    file = Path(file)
    qdir = store_root / QUARANTINE_DIR
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / file.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = qdir / f"{file.name}.{suffix}"
        os.replace(file, target)
    except OSError:
        return None
    _log(qdir, {"file": file.name, "quarantined_as": target.name, "reason": reason})
    return target


def _log(qdir: Path, row: dict) -> None:
    # single O_APPEND write: concurrent quarantines from separate
    # processes cannot interleave torn lines
    line = (json.dumps(row, sort_keys=True) + "\n").encode()
    try:
        fd = os.open(qdir / "log.jsonl", os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
    except OSError:
        pass
