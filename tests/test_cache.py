"""Result-cache robustness tests: corruption, I/O failure, poisoning.

The disk cache is shared state that outlives any single run, so its
failure modes are the dangerous ones: a torn or mismatched entry must
degrade to re-simulation (never a crash, never a wrong result) and be
quarantined as evidence, failed writes must be counted and warned about
instead of silently dropping persistence, and transient evaluation
failures must never be written to disk at all — a cached ``inf`` would
poison every future search that visits the same candidate.
"""

from __future__ import annotations

import errno
import json
import math
import os
import warnings
from pathlib import Path

import pytest

from repro.core import GuidedSearch, derive_variants
from repro.eval import CachedResult, EvalEngine, EvalRequest, ResultCache
from repro.eval.cache import CACHE_RECORD_KIND
from repro.kernels import matmul
from repro.machines import get_machine
from repro.storage import open_record, seal_record
from tests.chaos import WorkerFaultPlan, worker_faults

SGI = get_machine("sgi")


def _one_request():
    kernel = matmul()
    variant = derive_variants(kernel, SGI)[0]
    values = GuidedSearch(kernel, SGI, {"N": 16}).initial_values(variant)
    return EvalRequest.build(kernel, variant, values, {"N": 16})


def _entry_file(cache: ResultCache) -> Path:
    files = list(Path(cache.path).rglob("*.json"))
    assert len(files) == 1
    return files[0]


def _tamper(file: Path, **changes) -> None:
    """Rewrite a sealed entry with body fields changed but a *valid*
    checksum — simulating a semantically wrong (not torn) entry."""
    body = open_record(file.read_text(), CACHE_RECORD_KIND)
    body.update(changes)
    file.write_text(seal_record(CACHE_RECORD_KIND, body))


def _prime(tmp_path) -> tuple:
    """A disk cache holding exactly one real evaluation."""
    cache = ResultCache(tmp_path / "cache")
    engine = EvalEngine(SGI, cache=cache)
    request = _one_request()
    outcome = engine.evaluate_batch([request])[0]
    assert engine.stats.simulations == 1
    return cache, request, outcome


class TestCorruptEntries:
    def _fresh_lookup(self, cache_dir, request):
        """A cold engine over the same disk cache (memory layer empty)."""
        return EvalEngine(SGI, cache=ResultCache(cache_dir))

    def test_truncated_json_resimulates(self, tmp_path):
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        file.write_text(file.read_text()[: len(file.read_text()) // 2])
        engine = self._fresh_lookup(cache.path, request)
        again = engine.evaluate_batch([request])[0]
        assert again.cycles == outcome.cycles
        assert again.source == "sim"  # re-simulated, not served corrupt
        assert engine.cache.corrupt_entries == 1
        # the torn entry is preserved in quarantine, and the re-put
        # repaired the live slot
        assert engine.cache.quarantined_entries == 1
        assert (Path(cache.path) / "quarantine" / file.name).exists()
        assert file.exists() and file.read_text()

    def test_checksum_mismatch_resimulates(self, tmp_path):
        # a single flipped byte inside a well-formed JSON entry: only the
        # checksum can catch this
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        payload = json.loads(file.read_text())
        payload["body"]["cycles"] = (payload["body"]["cycles"] or 0) + 1
        file.write_text(json.dumps(payload))
        engine = self._fresh_lookup(cache.path, request)
        again = engine.evaluate_batch([request])[0]
        assert again.source == "sim"
        assert again.cycles == outcome.cycles  # never served the tampered value
        assert engine.cache.corrupt_entries == 1

    def test_key_mismatch_resimulates(self, tmp_path):
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        _tamper(file, key="0" * 64)
        engine = self._fresh_lookup(cache.path, request)
        again = engine.evaluate_batch([request])[0]
        assert again.source == "sim"
        assert again.cycles == outcome.cycles
        assert engine.cache.corrupt_entries == 1

    def test_version_mismatch_resimulates(self, tmp_path):
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        _tamper(file, version=999)
        engine = self._fresh_lookup(cache.path, request)
        again = engine.evaluate_batch([request])[0]
        assert again.source == "sim"
        assert again.cycles == outcome.cycles
        assert engine.cache.corrupt_entries == 1

    def test_legacy_unsealed_entry_still_readable(self, tmp_path):
        # a pre-checksum (format 1) cache survives the upgrade: entries
        # are served, not quarantined
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        body = open_record(file.read_text(), CACHE_RECORD_KIND)
        body["version"] = 1
        file.write_text(json.dumps(body))
        engine = self._fresh_lookup(cache.path, request)
        again = engine.evaluate_batch([request])[0]
        assert again.source == "disk"
        assert again.cycles == outcome.cycles
        assert engine.cache.corrupt_entries == 0

    def test_unreadable_file_is_a_miss(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("chmod 000 is not enforced for root")
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        file.chmod(0o000)
        try:
            engine = self._fresh_lookup(cache.path, request)
            again = engine.evaluate_batch([request])[0]
            assert again.source == "sim"
            assert again.cycles == outcome.cycles
            # unreadable != corrupt: the entry may be fine, just blocked
            assert engine.cache.corrupt_entries == 0
        finally:
            file.chmod(0o644)

    def test_corrupt_entry_quarantine_failure_is_tolerated(
        self, tmp_path, monkeypatch
    ):
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        file.write_text("{ not json")
        # neither the quarantine move nor the fallback unlink works: the
        # entry must still just be a miss, no crash
        monkeypatch.setattr(
            "repro.storage.quarantine.os.replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError()),
        )
        monkeypatch.setattr(
            Path, "unlink", lambda self, *a, **k: (_ for _ in ()).throw(OSError())
        )
        fresh = ResultCache(cache.path)
        engine = EvalEngine(SGI, cache=fresh)
        again = engine.evaluate_batch([request])[0]
        assert again.source == "sim"
        assert again.cycles == outcome.cycles
        assert fresh.corrupt_entries >= 1
        assert fresh.quarantined_entries == 0

    def test_quarantine_preserves_evidence_and_counts(self, tmp_path):
        cache, request, outcome = _prime(tmp_path)
        file = _entry_file(cache)
        torn = file.read_text()[:40]
        file.write_text(torn)
        fresh = ResultCache(cache.path)
        engine = EvalEngine(SGI, cache=fresh)
        engine.evaluate_batch([request])
        qdir = Path(cache.path) / "quarantine"
        assert (qdir / file.name).read_text() == torn  # evidence intact
        log = (qdir / "log.jsonl").read_text().strip().splitlines()
        assert json.loads(log[-1])["file"] == file.name
        # surfaced through the engine's stats and metrics
        assert engine.stats.cache_quarantined == 1
        assert engine.metrics.counter("eval.cache_quarantined").value == 1


class TestWriteFailures:
    def test_disk_write_failure_counted_and_warned_once(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("tempfile.mkstemp", boom)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put("ab" * 32, CachedResult(1.0, None))
            cache.put("cd" * 32, CachedResult(2.0, None))
        assert cache.disk_write_failures == 2
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1  # warned once per errno class, counted twice
        assert "not persisting" in str(runtime[0].message)
        # the results survive in memory regardless
        assert cache.get_memory("ab" * 32).cycles == 1.0

    def test_write_failures_split_by_errno_class(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        failures = iter(
            [
                OSError(errno.ENOSPC, "no space left on device"),
                OSError(errno.EACCES, "permission denied"),
            ]
        )

        def boom(*args, **kwargs):
            raise next(failures)

        monkeypatch.setattr("tempfile.mkstemp", boom)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put("ab" * 32, CachedResult(1.0, None))
            cache.put("cd" * 32, CachedResult(2.0, None))
        assert cache.disk_write_failures == 2
        assert cache.disk_write_failures_enospc == 1
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # distinct classes each get their own (single) warning, and the
        # warning names the errno and the path it failed on
        assert len(runtime) == 2
        assert "ENOSPC" in str(runtime[0].message)
        assert ("ab" * 32) in str(runtime[0].message)
        assert "EACCES" in str(runtime[1].message)

    def test_engine_surfaces_write_failures_in_stats(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        engine = EvalEngine(SGI, cache=cache)

        def boom(*args, **kwargs):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("tempfile.mkstemp", boom)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine.evaluate_batch([_one_request()])
        assert engine.stats.disk_write_failures == 1
        assert engine.metrics.counter("eval.disk_write_failures").value == 1


class TestTransientNeverCached:
    def test_transient_outcome_not_persisted(self, tmp_path):
        # The attempt runs out of memory: neither cache layer may
        # remember the inf result.
        plan = WorkerFaultPlan((("oom", 1.0),), seed=0)
        cache = ResultCache(tmp_path / "cache")
        engine = EvalEngine(SGI, cache=cache)
        request = _one_request()
        with worker_faults(plan):
            outcome = engine.evaluate_batch([request])[0]
        assert outcome.status == "transient"
        assert cache.get_memory(outcome.key) is None
        assert list(Path(cache.path).rglob("*.json")) == []
        # the fault gone, the same cache serves a real simulation
        healthy = EvalEngine(SGI, cache=cache)
        again = healthy.evaluate_batch([request])[0]
        assert again.status == "ok" and again.source == "sim"
        assert math.isfinite(again.cycles)

    def test_infeasible_is_cached_as_before(self, tmp_path):
        # Contrast: a deterministic infeasibility (bad binding) IS cached.
        kernel = matmul()
        variant = derive_variants(kernel, SGI)[0]
        values = GuidedSearch(kernel, SGI, {"N": 16}).initial_values(variant)
        values = {k: 0 for k in values}  # zero tiles cannot be built
        request = EvalRequest.build(kernel, variant, values, {"N": 16})
        cache = ResultCache(tmp_path / "cache")
        engine = EvalEngine(SGI, cache=cache)
        outcome = engine.evaluate_batch([request])[0]
        assert outcome.status == "infeasible"
        assert math.isinf(outcome.cycles)
        cold = EvalEngine(SGI, cache=ResultCache(cache.path))
        hit = cold.evaluate_batch([request])[0]
        assert hit.cached
        assert hit.status == "infeasible"
        assert cold.stats.simulations == 0
