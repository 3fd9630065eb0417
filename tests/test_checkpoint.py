"""Crash-resume tests: an interrupted search resumes by running again
over the same result cache.

The contract (docs/robustness.md): ECO's guided search is deterministic
and driven only by measured cycles, so killing it at any batch and
running it again on a fresh engine over the same disk cache replays
every candidate the crashed run finished as a disk hit and reaches the
clean run's winner, ``points`` and ``history``.  The replay re-simulates
nothing the crashed run finished: its disk hits equal the entries the
crashed run wrote, and hits plus fresh simulations equal the clean run's
simulations.
"""

from __future__ import annotations

import functools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.learned import train_ranker
from repro.core import EcoOptimizer, SearchConfig
from repro.eval import EvalEngine, ResultCache
from repro.kernels import matmul
from repro.machines import get_machine
from repro.obs import Tracer
from repro.obs.corpus import flatten_trace

SGI = get_machine("sgi")
SUN = get_machine("sun")
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


def _optimize(engine, config, problem, machine=SGI):
    return EcoOptimizer(
        matmul(), machine, config, engine=engine
    ).optimize(problem).result


def _disk_entries(cache_dir: Path) -> int:
    return len(list(cache_dir.glob("*/*.json")))


def _crash_then_resume(cache_dir, fuse, config, problem, machine=SGI):
    """Crash a search after ``fuse`` batches over a disk cache at
    ``cache_dir``, then run it again on a fresh engine over the same
    cache; returns ``(resumed result, resumed engine stats, entries the
    crashed run wrote)``."""
    with FuseEngine(machine, fuse=fuse, cache=ResultCache(cache_dir)) as engine:
        with pytest.raises(Interrupt):
            _optimize(engine, config, problem, machine)
    written = _disk_entries(cache_dir)
    with EvalEngine(machine, cache=ResultCache(cache_dir)) as engine:
        result = _optimize(engine, config, problem, machine)
        stats = engine.stats
    return result, stats, written


def _assert_same_search(result, clean):
    assert result.variant.name == clean.variant.name
    assert result.values == clean.values
    assert result.prefetch == clean.prefetch
    assert result.pads == clean.pads
    assert result.cycles == clean.cycles
    assert result.points == clean.points
    assert result.history == clean.history


class TestGuidedResume:
    CONFIG = SearchConfig(full_search_variants=2)
    PROBLEM = {"N": 16}

    def _clean(self, config):
        with EvalEngine(SGI) as engine:
            result = _optimize(engine, config, self.PROBLEM)
            return result, engine.stats

    def _crash_after_every_batch(self, tmp_path, config):
        clean, clean_stats = self._clean(config)
        assert clean_stats.batches > 1
        for fuse in range(1, clean_stats.batches):
            cache_dir = tmp_path / f"crash-{fuse}"
            result, stats, written = _crash_then_resume(
                cache_dir, fuse, config, self.PROBLEM
            )
            _assert_same_search(result, clean)
            assert written > 0
            assert stats.disk_hits == written, fuse
            assert stats.disk_hits + stats.simulations == clean_stats.simulations

    def test_interrupt_anywhere_then_resume_matches_clean(self, tmp_path):
        self._crash_after_every_batch(tmp_path, self.CONFIG)

    def test_interrupt_anywhere_with_prescreen_then_resume_matches_clean(
        self, tmp_path
    ):
        self._crash_after_every_batch(
            tmp_path, SearchConfig(full_search_variants=2, prescreen=True)
        )

    def test_resume_skips_completed_work(self, tmp_path):
        """A finished search run again re-simulates nothing."""
        cache_dir = tmp_path / "cache"
        with EvalEngine(SGI, cache=ResultCache(cache_dir)) as engine:
            clean = _optimize(engine, self.CONFIG, self.PROBLEM)
            simulated = engine.stats.simulations
        with EvalEngine(SGI, cache=ResultCache(cache_dir)) as engine:
            rerun = _optimize(engine, self.CONFIG, self.PROBLEM)
            assert engine.stats.simulations == 0
            assert engine.stats.disk_hits == simulated
        _assert_same_search(rerun, clean)

    def test_config_change_over_the_same_cache_matches_its_clean_run(
        self, tmp_path
    ):
        """The cache is content-addressed, so a search with another
        configuration over a crashed run's cache reaches its own clean
        result, never the other configuration's."""
        other = SearchConfig(full_search_variants=1)
        clean, _ = self._clean(other)
        cache_dir = tmp_path / "cache"
        with FuseEngine(SGI, fuse=10, cache=ResultCache(cache_dir)) as engine:
            with pytest.raises(Interrupt):
                _optimize(engine, self.CONFIG, self.PROBLEM)
        with EvalEngine(SGI, cache=ResultCache(cache_dir)) as engine:
            result = _optimize(engine, other, self.PROBLEM)
            assert engine.stats.disk_hits > 0
        _assert_same_search(result, clean)


# -- the learned ranker's online refit survives a resume ----------------


@functools.lru_cache(maxsize=None)
def _sun_ranker():
    """A ranker trained (seed 0) on the plain mm@sun N=24 search trace."""
    tracer = Tracer(kernel="mm", machine=SUN.name, size=24)
    with EvalEngine(SUN, tracer=tracer) as engine:
        _optimize(engine, SearchConfig(full_search_variants=2), {"N": 24}, SUN)
    return train_ranker(flatten_trace(tracer.events()), "mm", "sun", seed=0)


@functools.lru_cache(maxsize=None)
def _ranked_clean():
    config = SearchConfig(full_search_variants=2, ranker=_sun_ranker())
    with EvalEngine(SUN) as engine:
        return _optimize(engine, config, {"N": 32}, SUN)


def assert_ranked_resume_matches_clean(fuse: int, cache_dir: Path) -> None:
    """Crash the ranked mm@sun N=32 search after ``fuse`` batches and
    resume it over the same cache: the ranker clone must be refit on the
    replayed measurements exactly as in the clean run, so the winner,
    cycles and history match.  (A stage journal that replayed recorded
    stages without feeding them to the ranker resumed to a 21% slower
    winner here.)"""
    config = SearchConfig(full_search_variants=2, ranker=_sun_ranker())
    result, _, _ = _crash_then_resume(cache_dir, fuse, config, {"N": 32}, SUN)
    clean = _ranked_clean()
    assert (result.variant.name, result.values) == (
        clean.variant.name, clean.values
    ), fuse
    assert result.cycles == clean.cycles
    assert result.history == clean.history


@pytest.mark.parametrize("fuse", [1, 12])
def test_ranked_search_resumes_to_the_clean_winner(tmp_path, fuse):
    assert_ranked_resume_matches_clean(fuse, tmp_path / "cache")


# -- the acceptance scenario: SIGKILL a real tune, run it again ---------


class TestKillAndResumeCLI:
    SIZE = "48"

    def _start(self, cache_dir, *extra):
        cmd = [
            sys.executable, "-m", "repro", "tune", "mm",
            "--machine", "sgi", "--size", self.SIZE, *extra,
        ]
        if cache_dir is not None:
            cmd += ["--cache", str(cache_dir)]
        return subprocess.Popen(
            cmd, cwd=SRC_DIR, env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def _tune(self, cache_dir, *extra):
        proc = self._start(cache_dir, *extra)
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, out
        return out

    @staticmethod
    def _winner(out):
        return [
            line for line in out.splitlines()
            if "selected" in line or "prefetch:" in line
        ]

    def test_sigkill_mid_tune_then_resume_reaches_clean_result(self, tmp_path):
        clean = self._winner(self._tune(None))
        assert clean, "tune printed no winner"
        cache_dir = tmp_path / "cache"
        proc = self._start(cache_dir)
        # kill as soon as the search has persisted a measurement
        deadline = time.monotonic() + 120
        while _disk_entries(cache_dir) == 0 and proc.poll() is None:
            assert time.monotonic() < deadline, "tune wrote no cache entry"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.communicate()
        # the kill landed mid-search, not after a finished tune
        assert proc.returncode == -signal.SIGKILL
        written = _disk_entries(cache_dir)
        assert written > 0
        resumed = self._tune(cache_dir, "--stats")
        assert self._winner(resumed) == clean
        stats_line = next(
            line for line in resumed.splitlines()
            if line.startswith("stats json: ")
        )
        stats = json.loads(stats_line[len("stats json: "):])
        assert stats["disk_hits"] > 0
