"""Storage integrity layer tests (repro.storage under storage faults).

The tentpole contract of the storage layer: every persistent store is
self-validating (sealed, checksummed records), mutually excluded across
processes (advisory file locks), and degrades gracefully under the four
classic filesystem failure modes — a fault never changes what a search
computes, only what persists.  ``repro doctor`` then turns any leftover
mess back into a pristine store.  Each class below pins one piece:
records, locks, the fault plan, each store under each fault kind, the
doctor scan/repair loop, and finally the end-to-end determinism claim
(a chaos-run search converges byte-identically to the clean run).  The
faults come from ``tests/chaos.py``, installed around
``repro.storage.atomic``'s sealed write and record read.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path

import pytest

from repro.core import EcoOptimizer, GuidedSearch, SearchConfig, derive_variants
from repro.eval import CachedResult, EvalEngine, EvalRequest, ResultCache
from repro.kernels import matmul
from repro.machines import get_machine
from repro.obs.corpus import Corpus
from repro.storage import (
    FileLock,
    LockTimeout,
    RecordError,
    StorageError,
    TMP_PREFIX,
    lock_is_stale,
    open_record,
    quarantine_file,
    remove_stale_lock,
    seal_record,
    write_sealed,
)
from repro.storage.doctor import (
    run_doctor,
    scan_cache,
    scan_corpus,
)
from tests.chaos import CI_STORAGE_RATES, StorageFaultPlan, storage_faults

SGI = get_machine("sgi")
REFERENCE_TRACE = os.path.join("results", "traces", "mm_sgi_r10k.trace.jsonl")


# -- sealed records -----------------------------------------------------


class TestSealedRecords:
    def test_roundtrip(self):
        body = {"version": 2, "xs": [1, 2, 3], "inner": {"a": None}}
        text = seal_record("test-kind", body)
        assert open_record(text, "test-kind") == body

    def test_serialization_is_canonical(self):
        a = seal_record("k", {"x": 1, "y": 2})
        b = seal_record("k", {"y": 2, "x": 1})
        assert a == b  # key order cannot change the bytes (or the checksum)

    def test_flipped_byte_detected(self):
        text = seal_record("k", {"cycles": 100})
        payload = json.loads(text)
        payload["body"]["cycles"] = 101  # well-formed JSON, wrong content
        with pytest.raises(RecordError, match="checksum"):
            open_record(json.dumps(payload), "k")

    def test_wrong_kind_rejected(self):
        text = seal_record("cache-entry", {"x": 1})
        with pytest.raises(RecordError, match="kind"):
            open_record(text, "ranker-model")

    def test_unsealed_text_rejected(self):
        with pytest.raises(RecordError):
            open_record('{"just": "json"}', "k")
        with pytest.raises(RecordError):
            open_record("not json at all", "k")

    def test_non_dict_body_rejected(self):
        with pytest.raises(TypeError):
            seal_record("k", [1, 2, 3])


# -- file locks ---------------------------------------------------------


class TestFileLock:
    def test_mutual_exclusion(self, tmp_path):
        path = tmp_path / ".lock"
        with FileLock(path):
            with pytest.raises(LockTimeout, match="could not lock"):
                FileLock(path, timeout=0.05).acquire()

    def test_double_acquire_rejected(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_orderly_release_removes_lockfile(self, tmp_path):
        path = tmp_path / ".lock"
        with FileLock(path):
            assert path.exists()
        assert not path.exists()  # only a crashed holder leaves litter

    def test_read_modify_write_under_contention(self, tmp_path):
        """Threads are the cheap stand-in here; the cross-process case is
        tests/test_storage_stress.py."""
        counter = tmp_path / "counter.txt"
        counter.write_text("0")
        errors = []

        def bump(n):
            try:
                for _ in range(n):
                    with FileLock(tmp_path / ".lock"):
                        value = int(counter.read_text())
                        counter.write_text(str(value + 1))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=bump, args=(25,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert int(counter.read_text()) == 100  # no lost updates

    def test_stale_lock_detection(self, tmp_path):
        path = tmp_path / ".lock"
        path.write_text("999999")  # crashed holder: file exists, flock free
        assert lock_is_stale(path)
        with FileLock(path):  # a stale lock never blocks acquisition
            assert not lock_is_stale(path)
        assert not lock_is_stale(tmp_path / "absent.lock")

    def test_stale_check_survives_release_race(self, tmp_path, monkeypatch):
        """The holder can release (unlinking the lockfile) between the
        exists() check and the open — that's an absent lock, not a crash."""
        path = tmp_path / ".lock"
        path.write_text("999999")
        real_open = os.open

        def vanished(target, *args, **kwargs):
            if Path(target) == path:
                path.unlink()
                raise FileNotFoundError(target)
            return real_open(target, *args, **kwargs)

        monkeypatch.setattr(os, "open", vanished)
        assert not lock_is_stale(path)

    def test_remove_stale_lock(self, tmp_path):
        path = tmp_path / ".lock"
        path.write_text("999999")  # crashed holder
        assert remove_stale_lock(path)
        assert not path.exists()
        assert not remove_stale_lock(path)  # already gone: nothing removed

    def test_remove_stale_lock_leaves_held_lock_alone(self, tmp_path):
        """Unlinking happens under the flock, so a lock that went live
        after a stale sighting is never yanked out from under its holder."""
        path = tmp_path / ".lock"
        with FileLock(path):
            assert not remove_stale_lock(path)
            assert path.exists()


# -- quarantine ---------------------------------------------------------


class TestQuarantine:
    def test_moves_file_and_logs(self, tmp_path):
        bad = tmp_path / "entry.json"
        bad.write_text("{ torn")
        target = quarantine_file(tmp_path, bad, "test reason")
        assert target is not None and target.read_text() == "{ torn"
        assert not bad.exists()
        log = (tmp_path / "quarantine" / "log.jsonl").read_text()
        row = json.loads(log.strip().splitlines()[-1])
        assert row["file"] == "entry.json" and "test reason" in row["reason"]

    def test_name_collisions_get_suffixes(self, tmp_path):
        names = set()
        for _ in range(3):
            bad = tmp_path / "entry.json"
            bad.write_text("{ torn")
            names.add(quarantine_file(tmp_path, bad, "r").name)
        assert len(names) == 3  # evidence is never overwritten


# -- the fault plan -----------------------------------------------------


class TestFsFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            StorageFaultPlan((("meteor", 0.5),))

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="sum"):
            StorageFaultPlan((("torn", 0.6), ("crash", 0.6)))

    def test_draw_is_deterministic(self):
        labels = [f"ab/key-{i}.json" for i in range(300)]
        outcomes = []
        for _ in range(2):
            plan = StorageFaultPlan((("torn", 0.5),), seed=11)
            outcomes.append([plan.decide("write", l) for l in labels])
        assert outcomes[0] == outcomes[1]
        assert any(k == "torn" for k in outcomes[0])
        assert any(k is None for k in outcomes[0])

    def test_fires_at_most_once_per_label(self):
        plan = StorageFaultPlan((("torn", 1.0),), seed=0)
        assert plan.decide("write", "ab/x.json") == "torn"
        assert plan.decide("write", "ab/x.json") is None  # the retry lands
        assert plan.injected == {"torn": 1}

    def test_kinds_gate_on_operation(self):
        plan = StorageFaultPlan((("corrupt_read", 1.0),), seed=0)
        assert plan.decide("write", "label") is None  # read fault, write op
        assert plan.decide("read", "label") == "corrupt_read"


# -- each store under each fault kind -----------------------------------


def _one_request(size: int = 16) -> EvalRequest:
    kernel = matmul()
    variant = derive_variants(kernel, SGI)[0]
    values = GuidedSearch(kernel, SGI, {"N": size}).initial_values(variant)
    return EvalRequest.build(kernel, variant, values, {"N": size})


def _sole(plan_kind: str):
    """Every sealed write or record read in the block suffers ``plan_kind``
    (once per artifact)."""
    return storage_faults(StorageFaultPlan(((plan_kind, 1.0),), seed=0))


class TestCacheUnderFaults:
    KEY = "ab" * 32

    def test_enospc_counts_and_warns(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with _sole("enospc"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cache.put(self.KEY, CachedResult(1.0, None))
            assert cache.disk_write_failures == 1
            assert cache.disk_write_failures_enospc == 1
            assert any("ENOSPC" in str(w.message) for w in caught)
            assert list(Path(cache.path).rglob("*.json")) == []
            # fire-once: the next write of the same key lands
            cache.put(self.KEY, CachedResult(1.0, None))
        assert ResultCache(cache.path).get_disk(self.KEY).cycles == 1.0

    def test_torn_write_is_caught_on_read(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with _sole("torn"):
            cache.put(self.KEY, CachedResult(1.0, None))
        fresh = ResultCache(cache.path)
        assert fresh.get_disk(self.KEY) is None  # checksum caught the tear
        assert fresh.corrupt_entries == 1
        assert fresh.quarantined_entries == 1

    def test_crash_before_rename_is_a_silent_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with _sole("crash"):
            cache.put(self.KEY, CachedResult(1.0, None))
        fresh = ResultCache(cache.path)
        assert fresh.get_disk(self.KEY) is None
        assert fresh.corrupt_entries == 0  # nothing landed, nothing corrupt
        orphans = [
            f
            for f in Path(cache.path).rglob("*")
            if f.is_file() and f.name.startswith(TMP_PREFIX)
        ]
        assert len(orphans) == 1  # the stranded temp, for doctor to sweep

    def test_corrupt_read_resimulates_once(self, tmp_path):
        clean = ResultCache(tmp_path / "cache")
        clean.put(self.KEY, CachedResult(1.0, None))
        rotten = ResultCache(clean.path)
        with _sole("corrupt_read"):
            assert rotten.get_disk(self.KEY) is None  # bit rot: miss + quarantine
        assert rotten.corrupt_entries == 1


class TestCorpusIntegrity:
    def test_corrupt_index_quarantined_with_doctor_hint(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        corpus.ingest(REFERENCE_TRACE)
        Path(corpus.index_path).write_text("{ torn index")
        with pytest.raises(StorageError, match="repro doctor"):
            Corpus(str(tmp_path / "corpus")).entries()
        # the torn index moved aside as evidence
        assert not Path(corpus.index_path).exists()
        assert list((tmp_path / "corpus" / "quarantine").glob("index.json*"))

    def test_doctor_rebuilds_index_from_blobs(self, tmp_path):
        root = tmp_path / "corpus"
        corpus = Corpus(str(root))
        result = corpus.ingest(REFERENCE_TRACE)
        Path(corpus.index_path).unlink()  # blobs are the truth
        report = scan_corpus(root, repair=True)
        assert any("rebuilt index" in r for r in report.repairs)
        assert scan_corpus(root).healthy
        entries = Corpus(str(root)).entries()
        assert [e["id"] for e in entries] == [result.id]


# -- the doctor ---------------------------------------------------------


class TestDoctor:
    def _primed_cache(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        for i in range(4):
            cache.put(f"{i:02d}" * 32, CachedResult(float(i), None))
        return cache

    def test_clean_store_is_healthy(self, tmp_path):
        cache = self._primed_cache(tmp_path)
        report = scan_cache(cache.path)
        assert report.healthy
        assert report.entries == 4 and report.ok == 4

    def test_absent_store_is_healthy(self, tmp_path):
        report = run_doctor(
            cache=str(tmp_path / "none"),
            corpus=str(tmp_path / "none"),
        )
        assert report.healthy
        assert all(not s.present for s in report.stores)

    def test_scan_finds_repair_fixes_second_pass_clean(self, tmp_path):
        cache = self._primed_cache(tmp_path)
        root = Path(cache.path)
        # one torn entry, one stranded temp, one stale lockfile
        victim = next(iter(sorted(root.rglob("*.json"))))
        victim.write_text(victim.read_text()[:30])
        (victim.parent / f"{TMP_PREFIX}stranded.json").write_text("{")
        (victim.parent / ".lock").write_text("999999")

        found = scan_cache(root)
        assert not found.healthy
        assert found.corrupt == 1
        assert found.orphan_tmp == 1 and found.stale_locks == 1

        repaired = scan_cache(root, repair=True)
        assert repaired.healthy
        assert repaired.quarantined == 1
        assert len(repaired.repairs) == 3
        assert (root / "quarantine" / victim.name).exists()

        second = scan_cache(root)
        assert second.healthy and second.corrupt == 0
        assert second.ok == 3  # the quarantined entry is gone from live

    def test_valid_json_bad_checksum_is_quarantined(self, tmp_path):
        """A sealed entry whose body was altered still parses as JSON but
        fails the checksum with RecordError (not ValueError) — the doctor
        must quarantine it like any other corruption, not crash."""
        cache = self._primed_cache(tmp_path)
        root = Path(cache.path)
        victim = next(iter(sorted(root.rglob("*.json"))))
        payload = json.loads(victim.read_text())
        payload["body"]["__tampered__"] = True  # valid JSON, wrong sha256
        victim.write_text(json.dumps(payload))

        found = scan_cache(root)
        assert not found.healthy and found.corrupt == 1
        assert any("checksum" in p for p in found.problems)

        repaired = scan_cache(root, repair=True)
        assert repaired.healthy and repaired.quarantined == 1
        assert (root / "quarantine" / victim.name).exists()
        assert scan_cache(root).healthy

    def test_wrong_kind_record_is_quarantined(self, tmp_path):
        """A current-format record of the wrong kind dropped into the
        cache raises RecordError from the cache's decoder — the doctor
        quarantines it rather than letting it escape the scan."""
        cache = self._primed_cache(tmp_path)
        root = Path(cache.path)
        (root / "ab").mkdir(exist_ok=True)
        (root / "ab" / f"{'ab' * 32}.json").write_text(
            seal_record("ranker-model", {"x": 1})
        )

        found = scan_cache(root)
        assert not found.healthy and found.corrupt == 1

        repaired = scan_cache(root, repair=True)
        assert repaired.healthy and repaired.quarantined == 1
        assert scan_cache(root).healthy

    def test_repair_scan_never_touches_valid_entries(self, tmp_path):
        cache = self._primed_cache(tmp_path)
        before = {
            f: f.read_text() for f in Path(cache.path).rglob("*.json")
        }
        scan_cache(cache.path, repair=True)
        after = {f: f.read_text() for f in Path(cache.path).rglob("*.json")}
        assert before == after

    def test_full_report_shape(self, tmp_path):
        cache = self._primed_cache(tmp_path)
        report = run_doctor(
            cache=str(cache.path),
            corpus=str(tmp_path / "nocorpus"),
        )
        text = report.describe()
        assert "storage integrity report" in text
        assert "4 entries, 4 ok, 0 corrupt" in text
        assert "status: healthy" in text
        data = report.as_dict()
        assert data["healthy"] is True
        assert set(data["stores"]) == {"cache", "corpus"}


# -- the end-to-end determinism claim -----------------------------------


class TestSearchUnderChaos:
    """A chaos-run search converges byte-identically to the clean run,
    and doctor --repair restores the stores it messed up."""

    CONFIG = SearchConfig(full_search_variants=2)
    PROBLEM = {"N": 16}

    def _tune(self, cache_dir=None):
        cache = ResultCache(cache_dir) if cache_dir else None
        engine = EvalEngine(SGI, cache=cache)
        optimizer = EcoOptimizer(matmul(), SGI, self.CONFIG, engine=engine)
        return optimizer.optimize(self.PROBLEM).result

    def test_chaos_run_matches_clean_run(self, tmp_path):
        clean = self._tune()
        plan = StorageFaultPlan(CI_STORAGE_RATES, seed=11)
        with storage_faults(plan), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # expected enospc warnings
            chaos = self._tune(cache_dir=tmp_path / "cache")
        assert plan.injected, "the chaos must actually fire"
        assert chaos.variant.name == clean.variant.name
        assert chaos.values == clean.values
        assert chaos.prefetch == clean.prefetch
        assert chaos.cycles == clean.cycles
        assert chaos.points == clean.points

        report = run_doctor(
            cache=str(tmp_path / "cache"),
            corpus=str(tmp_path / "nocorpus"),
            repair=True,
        )
        second = run_doctor(
            cache=str(tmp_path / "cache"),
            corpus=str(tmp_path / "nocorpus"),
        )
        assert second.healthy, second.describe()

        # running the search again over the repaired cache (how an
        # interrupted run resumes) reaches the clean result and
        # re-simulates only the entries the faults kept off the disk
        rerun = self._tune(cache_dir=tmp_path / "cache")
        assert (rerun.variant.name, rerun.values, rerun.cycles) == (
            clean.variant.name, clean.values, clean.cycles
        )
        assert rerun.history == clean.history
        assert 0 < rerun.stats["disk_hits"] < clean.stats["simulations"]
        assert (
            rerun.stats["disk_hits"] + rerun.stats["simulations"]
            == clean.stats["simulations"]
        )
