"""Atomic sealed-record I/O.

``write_sealed`` is the single write discipline every store uses: seal
the body (:mod:`repro.storage.records`), write it to a ``.tmp-*`` file
in the destination directory, then ``os.replace`` into place.  A reader
therefore sees either the old record or the new one, never a mixture —
*if the filesystem keeps its promises*.

Real filesystems break those promises: a write fails with ``ENOSPC``,
a torn write lands a short record, a crash strands a ``.tmp-*`` file
before its rename, bit rot mangles a read.  Each store absorbs them
(docs/robustness.md, "Storage integrity"): the checksum catches a torn
or rotten record on read, a failed write is counted, and ``repro
doctor`` cleans up what is left.  The storage chaos tests inject those
faults by wrapping :func:`write_sealed` and :func:`read_text`, the
calls every sealed write and read makes (``tests/chaos.py``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict

from .records import open_record, seal_record

__all__ = ["TMP_PREFIX", "read_sealed", "read_text", "write_sealed"]

#: prefix of in-flight temp files; ``repro doctor`` treats leftovers as orphans
TMP_PREFIX = ".tmp-"


def write_sealed(path, kind: str, body: Dict[str, Any]) -> None:
    """Atomically persist ``body`` as a sealed record at ``path``.

    Raises ``OSError`` when the write fails (a full disk, a permission
    flip, a vanished mount); the destination is then left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = seal_record(kind, body)
    fd, tmp_name = tempfile.mkstemp(
        prefix=TMP_PREFIX, suffix=".json", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_text(path) -> str:
    """The raw text of a stored record (``OSError`` if unreadable)."""
    with open(path, "r") as handle:
        return handle.read()


def read_sealed(path, kind: str) -> Dict[str, Any]:
    """Read and verify the sealed record at ``path``, returning its body.

    Raises ``OSError`` if the file is unreadable and
    :class:`repro.storage.records.RecordError` if it fails validation.
    """
    return open_record(read_text(path), kind)
