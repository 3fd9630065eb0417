"""Speculative-search and model-prescreen tests (docs/search.md).

The contracts under test (ISSUE 5 acceptance criteria):

* **prescreen safety** — on the golden mm search, enabling the model
  prescreen skips simulations but never changes the tuned winner, on
  every machine model, and avoids >= 25% of them on sgi-r10k-mini;
* **speculation is unobservable** — a ``-j 4`` search finds the
  byte-identical result (points, history, full/delta split) of ``-j 1``
  and records the same canonical trace, even with the prescreen on,
  whether or not the host's CPU count lets it speculate;
* **consumption is crash-safe** — a search killed mid-flight (at
  ``-j 2`` with speculative work outstanding) resumes from its journal
  to the byte-identical result of an uninterrupted run;
* the :class:`~repro.analysis.surrogate.Surrogate` unit contract
  (margin semantics, memoization, fail-open on unscorable candidates);
* the ``repro bench`` floor check: its host-sensitive gates fail on
  the measured host and degrade to warnings on foreign ones.
"""

from __future__ import annotations

import shutil

import pytest

from repro.analysis import DEFAULT_MARGIN, SkipVerdict, Surrogate
from repro.bench import FLOOR_SLACK, check_search_floor
from repro.core import EcoOptimizer, SearchConfig
from repro.core.derive import derive_variants
from repro.eval import EvalEngine, ResultCache
from repro.kernels import matmul
from repro.machines import MACHINES, get_machine
from repro.obs import Tracer, canonical
from tests.conftest import forced_cpu_count

SGI = get_machine("sgi")


def _golden_search(machine, *, prescreen=False, jobs=1, tracer=None, cache=None):
    """The golden mm search (same setup as test_search_golden)."""
    config = SearchConfig(full_search_variants=2, prescreen=prescreen)
    with EvalEngine(machine, jobs=jobs, tracer=tracer, cache=cache) as engine:
        result = EcoOptimizer(
            matmul(), machine, config, engine=engine
        ).optimize({"N": 24}).result
        if tracer is not None:
            tracer.snapshot_metrics(engine.metrics)
    return result, engine


def _winner(result):
    return (
        result.variant.name,
        dict(result.values),
        dict(result.prefetch),
        dict(result.pads),
        result.cycles,
    )


#: the prescreen's avoided-simulation floor on the reference machine
PRESCREEN_AVOIDED_FLOOR = {"sgi-r10k-mini": 0.25}


class TestPrescreenSafety:
    """The prescreen skips >0 simulations and never moves the winner."""

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_winner_unchanged_with_prescreen(self, machine_name):
        machine = get_machine(machine_name)
        base, base_engine = _golden_search(machine, prescreen=False)
        pruned, pruned_engine = _golden_search(machine, prescreen=True)
        assert _winner(pruned) == _winner(base)
        assert base_engine.stats.prescreen_skips == 0
        assert pruned_engine.stats.prescreen_skips > 0
        # every skip is a simulation genuinely avoided
        assert (
            pruned_engine.stats.simulations < base_engine.stats.simulations
        )
        avoided = 1.0 - (
            pruned_engine.stats.simulations / base_engine.stats.simulations
        )
        assert avoided >= PRESCREEN_AVOIDED_FLOOR.get(machine_name, 0.0)

    def test_skips_are_excluded_from_points_and_history(self):
        base, _ = _golden_search(SGI, prescreen=False)
        pruned, engine = _golden_search(SGI, prescreen=True)
        # skipped candidates never enter the search record: every history
        # entry is a point actually measured (points == len(history), both
        # strictly below the unpruned count), and the record still ends at
        # the same best.  Inside a losing variant the trajectory may
        # legitimately differ — the contract is the *winner*, not the path.
        assert pruned.points < base.points
        assert len(pruned.history) == pruned.points
        assert len(base.history) == base.points
        assert min(e[-1] for e in pruned.history) == min(
            e[-1] for e in base.history
        )


class TestSpeculationIsUnobservable:
    def test_j4_with_prescreen_matches_j1(self, host_cpus):
        """Results, the full/delta split and canonical traces at -j 1
        and -j 4 are identical with the prescreen on: parallel workers
        and abandoned speculative work never reach the record."""
        serial_tracer = Tracer(kernel="mm", machine="sgi", size=24)
        serial, serial_engine = _golden_search(
            SGI, prescreen=True, jobs=1, tracer=serial_tracer
        )
        parallel_tracer = Tracer(kernel="mm", machine="sgi", size=24)
        parallel, parallel_engine = _golden_search(
            SGI, prescreen=True, jobs=4, tracer=parallel_tracer
        )
        assert _winner(parallel) == _winner(serial)
        assert parallel.points == serial.points
        assert parallel.history == serial.history
        assert canonical(parallel_tracer.events()) == canonical(
            serial_tracer.events()
        )
        assert (
            parallel_engine.stats.simulations,
            parallel_engine.stats.full_sims,
            parallel_engine.stats.delta_sims,
        ) == (
            serial_engine.stats.simulations,
            serial_engine.stats.full_sims,
            serial_engine.stats.delta_sims,
        )
        # -j 4 speculates exactly when the host has CPUs to overlap on
        submits = parallel_engine.metrics.counter(
            "pipeline.speculative_submits"
        ).value
        assert (submits > 0) == (host_cpus > 1)


class TestSpeculationOnAWarmDiskCache:
    def test_j4_counts_the_hits_of_j1(self, tmp_path):
        """Speculation probes the on-disk cache without promoting its
        entries to memory, so a speculating ``-j 4`` search on a warm
        disk cache counts the same memory and disk hits, runs the same
        simulations and records the same canonical trace as ``-j 1``."""
        warm = tmp_path / "warm"
        # the prescreened search simulates a subset of the plain one's
        # candidates: the plain searches below mix disk hits with misses
        _golden_search(SGI, prescreen=True, cache=ResultCache(warm))
        runs = {}
        for jobs in (1, 4):
            root = tmp_path / f"j{jobs}"
            shutil.copytree(warm, root)
            tracer = Tracer(kernel="mm", machine="sgi", size=24)
            with forced_cpu_count(8):
                result, engine = _golden_search(
                    SGI, jobs=jobs, tracer=tracer, cache=ResultCache(root)
                )
            runs[jobs] = (result, engine, canonical(tracer.events()))
        (serial, serial_engine, serial_trace) = runs[1]
        (parallel, parallel_engine, parallel_trace) = runs[4]
        assert _winner(parallel) == _winner(serial)
        assert parallel.history == serial.history

        def counts(engine):
            stats = engine.stats
            return (stats.memory_hits, stats.disk_hits, stats.simulations,
                    stats.full_sims, stats.delta_sims)

        assert counts(parallel_engine) == counts(serial_engine)
        assert serial_engine.stats.disk_hits > 0
        assert serial_engine.stats.simulations > 0
        assert parallel_trace == serial_trace
        assert parallel_engine.metrics.counter(
            "pipeline.speculative_submits"
        ).value > 0


class Interrupt(Exception):
    """Stands in for a crash inside an in-process search."""


class FuseResolveEngine(EvalEngine):
    """An engine that dies after a set number of consumed candidates.

    The fuse trips in :meth:`resolve`, the engine's one consumption
    path; at ``-j 2`` on a multi-CPU host the crash lands while
    speculative submissions are still in flight, which is exactly the
    state a resume must recover from.
    """

    def __init__(self, *args, fuse: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fuse = fuse

    def resolve(self, request, key):
        if self.fuse <= 0:
            raise Interrupt()
        self.fuse -= 1
        return super().resolve(request, key)


class TestSpeculationIsCrashSafe:
    CONFIG = SearchConfig(full_search_variants=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_mid_speculation_then_resume_matches_clean(
        self, tmp_path, jobs
    ):
        clean = (
            EcoOptimizer(matmul(), SGI, self.CONFIG)
            .optimize({"N": 16}).result
        )
        path = tmp_path / "ck.json"
        # Crash the search early (at -j 2 with speculative work pending),
        # then crash it again with a larger fuse until a pass survives:
        # the final best must be byte-identical wherever the crash landed.
        fuse = 3
        crashes = 0
        for _ in range(20):
            with forced_cpu_count(8), FuseResolveEngine(
                SGI, jobs=jobs, fuse=fuse
            ) as engine:
                optimizer = EcoOptimizer(
                    matmul(), SGI, self.CONFIG, engine=engine,
                    checkpoint_path=path, resume=True,
                )
                try:
                    result = optimizer.optimize({"N": 16}).result
                    break
                except Interrupt:
                    crashes += 1
                    fuse = 30
        else:
            pytest.fail("search never completed within the crash budget")
        assert crashes >= 1
        assert result.variant.name == clean.variant.name
        assert result.values == clean.values
        assert result.prefetch == clean.prefetch
        assert result.pads == clean.pads
        assert result.cycles == clean.cycles


class TestSurrogate:
    @pytest.fixture(scope="class")
    def scored(self):
        """Two bindings of one variant with strictly different scores."""
        variants = derive_variants(matmul(), SGI, max_variants=12)
        for variant in variants:
            params = [p for _, p in variant.tiles] + [
                p for _, p in variant.unrolls
            ]
            if not params:
                continue
            surrogate = Surrogate(matmul(), SGI, {"N": 24}, margin=0.0)
            seen = {}
            for size in (2, 4, 8, 16):
                values = {p: size for _, p in variant.tiles}
                values.update({p: 2 for _, p in variant.unrolls})
                score = surrogate.score(variant, values)
                if score is not None:
                    seen[score] = values
            if len(seen) >= 2:
                ordered = sorted(seen)
                return (variant, seen[ordered[0]], seen[ordered[-1]],
                        ordered[0], ordered[-1])
        pytest.fail("no variant produced two scorable, distinct bindings")

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            Surrogate(matmul(), SGI, {"N": 24}, margin=-0.1)

    def test_score_is_memoized(self, scored):
        variant, better, _, better_score, _ = scored
        surrogate = Surrogate(matmul(), SGI, {"N": 24})
        first = surrogate.score(variant, better)
        assert first == pytest.approx(better_score)
        assert surrogate.score(variant, dict(better)) == first
        assert len(surrogate._scores) == 1

    def test_judge_skips_only_beyond_margin(self, scored):
        variant, better, worse, better_score, worse_score = scored
        strict = Surrogate(matmul(), SGI, {"N": 24}, margin=0.0)
        verdict = strict.judge(variant, worse, best_values=better)
        assert isinstance(verdict, SkipVerdict)
        assert verdict.score == pytest.approx(worse_score)
        assert verdict.bound == pytest.approx(better_score)
        assert verdict.score > verdict.bound
        # the better candidate is never skipped against the worse best
        assert strict.judge(variant, better, best_values=worse) is None
        # a margin wider than the observed gap keeps the candidate
        generous = Surrogate(
            matmul(), SGI, {"N": 24},
            margin=worse_score / better_score,
        )
        assert generous.judge(variant, worse, best_values=better) is None
        # and the shipped default margin covers its calibration target
        assert DEFAULT_MARGIN > 0.2726

    def test_unscorable_candidates_are_never_skipped(self, scored, monkeypatch):
        variant, better, worse, _, _ = scored

        def explode(*args, **kwargs):
            raise RuntimeError("cannot instantiate")

        monkeypatch.setattr("repro.analysis.surrogate.cached_base", explode)
        surrogate = Surrogate(matmul(), SGI, {"N": 24}, margin=0.0)
        assert surrogate.score(variant, worse) is None
        assert surrogate.judge(variant, worse, best_values=better) is None


class TestSearchFloorCheck:
    @staticmethod
    def _results(speedup=2.5, sims_rate=300):
        return {
            "search": {
                "parallel_speedup": speedup,
                "best_sims_per_sec": sims_rate,
            },
        }

    @staticmethod
    def _floor(cpu_count):
        return {
            "host": {"cpu_count": cpu_count},
            "host_sensitive": {
                "parallel_speedup": 2.0,
                "best_sims_per_sec": 100,
            },
        }

    @staticmethod
    def _fake_host(monkeypatch, cpu_count):
        """Pin the apparent host so gate semantics are testable on any
        runner (the real host may well be the 1-core case itself)."""
        monkeypatch.setattr(
            "repro.bench._host_context",
            lambda: {
                "cpu_count": cpu_count,
                "single_core": cpu_count == 1,
                "platform": "linux",
                "python": "3.11.0",
            },
        )

    def test_passes_above_all_floors(self, monkeypatch):
        self._fake_host(monkeypatch, 4)
        assert check_search_floor(self._results(), self._floor(4)) == ([], [])

    def test_speedup_shortfall_fails_on_the_measured_host(self, monkeypatch):
        self._fake_host(monkeypatch, 4)
        floor = self._floor(4)
        failures, warnings = check_search_floor(
            self._results(speedup=1.0), floor
        )
        assert any("speedup" in f for f in failures)
        assert warnings == []
        # slack applies: just under the floor but above floor*(1-slack) passes
        near = 2.0 * (1 - FLOOR_SLACK) + 0.01
        assert check_search_floor(self._results(speedup=near), floor) == (
            [], []
        )

    def test_speedup_shortfall_warns_on_a_foreign_host(self, monkeypatch):
        self._fake_host(monkeypatch, 4)
        floor = self._floor(11)
        failures, warnings = check_search_floor(
            self._results(speedup=1.0), floor
        )
        assert failures == []
        assert any("host differs" in w for w in warnings)

    def test_quick_run_warns_that_speedup_was_not_measured(self, monkeypatch):
        """--quick runs no N=64 legs, so there is no speedup to gate."""
        self._fake_host(monkeypatch, 4)
        results = self._results()
        results["quick"] = True
        del results["search"]["parallel_speedup"]
        failures, warnings = check_search_floor(results, self._floor(4))
        assert failures == []
        assert any("not measured" in w for w in warnings)

    def test_sims_rate_shortfall_fails_on_the_measured_host(self, monkeypatch):
        self._fake_host(monkeypatch, 4)
        floor = self._floor(4)
        failures, warnings = check_search_floor(
            self._results(sims_rate=10), floor
        )
        assert any("sims/sec" in f for f in failures)
        assert warnings == []
        # slack: above floor*(1-slack) passes
        near = int(100 * (1 - FLOOR_SLACK)) + 1
        assert check_search_floor(self._results(sims_rate=near), floor) == (
            [], []
        )

    def test_single_core_host_warns_even_when_floor_matches(self, monkeypatch):
        """The ISSUE 6 host-sensitivity fix: a cpu_count==1 host can never
        enforce parallel wall-clock gates — even against a floor that was
        itself (mistakenly) recorded on a single-core machine."""
        self._fake_host(monkeypatch, 1)
        floor = self._floor(1)  # host "matches" ... but is single-core
        failures, warnings = check_search_floor(
            self._results(speedup=0.6, sims_rate=10), floor
        )
        assert failures == []
        assert any("single-core" in w for w in warnings)
        assert any("speedup" in w for w in warnings)
        assert any("sims/sec" in w for w in warnings)
