"""Crash-safe checkpoint/resume tests.

The contract (docs/robustness.md): with a journal attached, killing a
search at any instant and resuming it reaches the byte-identical best of
an uninterrupted run of ECO's guided search, and a journal from a *different* search (other
kernel, machine, problem or config) is discarded rather than grafted on.
"""

from __future__ import annotations

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import EcoOptimizer, SearchConfig
from repro.core.checkpoint import (
    JournalCorruptError,
    SearchJournal,
    decode_cycles,
    decode_prefetch,
    encode_cycles,
    encode_prefetch,
)
from repro.core.search import GuidedSearch
from repro.core.variants import PrefetchSite
from repro.eval import EvalEngine
from repro.kernels import matmul
from repro.machines import get_machine

SGI = get_machine("sgi")
SRC_DIR = str(Path(repro.__file__).parents[1])


class Interrupt(Exception):
    """Stands in for a crash inside an in-process search."""


class FuseEngine(EvalEngine):
    """An engine that dies after a set number of batches."""

    def __init__(self, *args, fuse: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fuse = fuse

    def evaluate_batch(self, requests):
        if self.fuse <= 0:
            raise Interrupt()
        self.fuse -= 1
        return super().evaluate_batch(requests)


class TestJournal:
    SCOPE = {"kind": "test", "n": 1}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.json"
        journal = SearchJournal(path, scope=self.SCOPE, resume=False)
        journal.record("stage", "a", {"x": 1})
        journal.record("stage", "b", [1, 2, 3])
        loaded = SearchJournal(path, scope=self.SCOPE, resume=True)
        assert loaded.origin == "resumed"
        assert loaded.get("stage", "a") == {"x": 1}
        assert loaded.get("stage", "b") == [1, 2, 3]
        assert loaded.stages_recorded == 2
        assert loaded.section("stage") == {"a": {"x": 1}, "b": [1, 2, 3]}

    def test_missing_file_is_fresh(self, tmp_path):
        journal = SearchJournal(tmp_path / "none.json", scope=self.SCOPE)
        assert journal.origin == "fresh"
        assert journal.get("s", "k") is None

    def test_scope_mismatch_discards(self, tmp_path):
        path = tmp_path / "j.json"
        SearchJournal(path, scope=self.SCOPE, resume=False).record("s", "k", 1)
        other = SearchJournal(path, scope={"kind": "test", "n": 2}, resume=True)
        assert other.origin == "discarded"
        assert other.get("s", "k") is None

    def test_corrupt_file_refuses_resume_with_backup(self, tmp_path):
        # A torn journal may hold real lost work: resume refuses loudly
        # (naming the quarantine backup) instead of silently starting over.
        path = tmp_path / "j.json"
        path.write_text("{ torn mid-write")
        with pytest.raises(JournalCorruptError) as exc:
            SearchJournal(path, scope=self.SCOPE, resume=True)
        assert "refusing to resume" in str(exc.value)
        backup = exc.value.backup
        assert backup is not None and backup.read_text() == "{ torn mid-write"
        assert not path.exists()  # moved aside, not copied
        # with the corrupt file quarantined, the same path works fresh
        journal = SearchJournal(path, scope=self.SCOPE, resume=True)
        assert journal.origin == "fresh"
        journal.record("s", "k", 1)
        assert SearchJournal(path, scope=self.SCOPE).get("s", "k") == 1

    def test_checksum_mismatch_refuses_resume(self, tmp_path):
        # Valid JSON, wrong bytes: only the sealed checksum catches this.
        path = tmp_path / "j.json"
        SearchJournal(path, scope=self.SCOPE, resume=False).record("s", "k", 1)
        payload = json.loads(path.read_text())
        payload["body"]["sections"]["s"]["k"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(JournalCorruptError):
            SearchJournal(path, scope=self.SCOPE, resume=True)

    def test_legacy_unsealed_journal_resumes(self, tmp_path):
        # A pre-checksum journal written by the previous format is still
        # resumable after the upgrade.
        path = tmp_path / "j.json"
        reference = SearchJournal(path, scope=self.SCOPE, resume=False)
        path.write_text(json.dumps({
            "version": 1, "scope": reference.scope,
            "sections": {"s": {"k": 41}},
        }))
        journal = SearchJournal(path, scope=self.SCOPE, resume=True)
        assert journal.origin == "resumed"
        assert journal.get("s", "k") == 41

    def test_wrong_version_discards(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"version": 999, "scope": self.SCOPE,
                                    "sections": {}}))
        assert SearchJournal(path, scope=self.SCOPE).origin == "discarded"

    def test_scope_normalizes_tuples(self, tmp_path):
        path = tmp_path / "j.json"
        SearchJournal(
            path, scope={"dims": (1, 2)}, resume=False
        ).record("s", "k", 1)
        # a scope built with lists instead of tuples still matches
        assert SearchJournal(path, scope={"dims": [1, 2]}).origin == "resumed"

    def test_codecs_roundtrip(self):
        assert decode_cycles(encode_cycles(math.inf)) == math.inf
        assert decode_cycles(encode_cycles(123.5)) == 123.5
        prefetch = {PrefetchSite("A", "K"): 2, PrefetchSite("B", "J"): 4}
        assert decode_prefetch(encode_prefetch(prefetch)) == prefetch


class TestGuidedResume:
    CONFIG = SearchConfig(full_search_variants=2)

    def _clean(self):
        return EcoOptimizer(matmul(), SGI, self.CONFIG).optimize({"N": 16}).result

    def test_interrupt_anywhere_then_resume_matches_clean(self, tmp_path):
        clean = self._clean()
        path = tmp_path / "ck.json"
        # Crash after 3 batches, then crash repeatedly with a larger fuse
        # (replaying a journal re-measures each completed variant's winner,
        # one batch apiece, so the fuse must exceed that replay cost to
        # guarantee forward progress), until one pass survives to the end:
        # the final best must be byte-identical wherever the crashes landed.
        fuse = 3
        for round_index in range(20):
            optimizer = EcoOptimizer(
                matmul(), SGI, self.CONFIG,
                engine=FuseEngine(SGI, fuse=fuse),
                checkpoint_path=path, resume=True,
            )
            try:
                result = optimizer.optimize({"N": 16}).result
                break
            except Interrupt:
                fuse = 25
        else:
            pytest.fail("search never completed within the crash budget")
        assert result.variant.name == clean.variant.name
        assert result.values == clean.values
        assert result.prefetch == clean.prefetch
        assert result.pads == clean.pads
        assert result.cycles == clean.cycles

    def test_resume_skips_completed_work(self, tmp_path):
        path = tmp_path / "ck.json"
        first = EcoOptimizer(
            matmul(), SGI, self.CONFIG, checkpoint_path=path
        )
        clean = first.optimize({"N": 16}).result
        engine = EvalEngine(SGI)
        resumed = EcoOptimizer(
            matmul(), SGI, self.CONFIG, engine=engine,
            checkpoint_path=path, resume=True,
        ).optimize({"N": 16}).result
        assert resumed.cycles == clean.cycles
        assert resumed.values == clean.values
        # replay re-measures only the per-variant winners, not the search
        assert engine.stats.simulations < clean.points / 2

    def test_config_change_discards_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        EcoOptimizer(
            matmul(), SGI, self.CONFIG, checkpoint_path=path
        ).optimize({"N": 16})
        other = EcoOptimizer(
            matmul(), SGI, SearchConfig(full_search_variants=1),
            checkpoint_path=path, resume=True,
        )
        other.optimize({"N": 16})
        assert other.journal.origin == "discarded"


class TestKillAndResumeCLI:
    """The acceptance scenario: SIGKILL a real tune, resume, same golden."""

    def _tune(self, checkpoint_dir, resume=False, kill_after=None):
        cmd = [
            sys.executable, "-m", "repro", "tune", "mm",
            "--machine", "sgi", "--size", "24",
            "--checkpoint", str(checkpoint_dir),
        ]
        if resume:
            cmd.append("--resume")
        proc = subprocess.Popen(
            cmd, cwd=SRC_DIR, env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if kill_after is not None:
            time.sleep(kill_after)
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return None
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, out
        return out

    def test_sigkill_mid_tune_then_resume_reaches_clean_result(self, tmp_path):
        clean = self._tune(tmp_path / "clean")
        selected = [l for l in clean.splitlines() if "selected" in l]
        assert selected, clean
        # Kill a second tune mid-search (if it finished first, resume is
        # trivially a replay — the assertion below still holds).
        self._tune(tmp_path / "ck", kill_after=2.0)
        resumed = self._tune(tmp_path / "ck", resume=True)
        assert [l for l in resumed.splitlines() if "selected" in l] == selected
        assert [l for l in resumed.splitlines() if "prefetch:" in l] == [
            l for l in clean.splitlines() if "prefetch:" in l
        ]
