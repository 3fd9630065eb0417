"""Storage-integrity layer shared by every persistent store.

`repro` persists its state under ``results/``: the content-addressed
result cache (``repro.eval.cache``), which is also how an interrupted
search resumes, and the trace corpus (``repro.obs.corpus``).  The
tuning-as-a-service direction (ROADMAP) has N concurrent processes
sharing both, so this package provides
the common substrate they are wired through:

- :mod:`repro.storage.records` — sealed, checksummed record envelopes
  verified on every read (:func:`seal_record` / :func:`open_record`).
- :mod:`repro.storage.locks` — advisory cross-process file locking
  with stale-lock detection (:class:`FileLock`).
- :mod:`repro.storage.atomic` — the write-to-temp + rename discipline
  with seeded filesystem-fault hooks (:func:`write_sealed` /
  :func:`read_sealed`).
- :mod:`repro.storage.quarantine` — corrupt entries are preserved in
  ``<store>/quarantine/`` for audit, never silently deleted
  (:func:`quarantine_file`).
- :mod:`repro.storage.doctor` — the scan/repair engine behind
  ``repro doctor``.

See docs/robustness.md ("Storage integrity") for the failure model and
the behavior contract of each store.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "atomic": ("TMP_PREFIX", "read_sealed", "write_sealed"),
    "locks": ("FileLock", "LockTimeout", "lock_is_stale", "remove_stale_lock"),
    "quarantine": ("QUARANTINE_DIR", "quarantine_file"),
    "records": (
        "RECORD_FORMAT", "RecordError", "StorageError", "body_checksum", "is_sealed",
        "open_record", "seal_record",
    ),
})
