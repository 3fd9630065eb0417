"""Trace determinism + golden-search integration for repro.obs.

The contracts under test (ISSUE 2 acceptance criteria):

* tracing is an *observer*: with a tracer attached, the mm golden search
  finds the bit-identical result (values, prefetch, points, cycles) the
  untraced run finds;
* the trace is deterministic: identical JSONL modulo the two timing
  fields (``ts``, ``dur``) at ``-j 1`` and ``-j 4``, whether or not the
  host's CPU count lets ``-j 4`` speculate;
* every emitted event validates against the documented schema, through a
  dump/load round trip;
* the trace *replays*: the best point recomputed from the candidate
  stream matches the search's winner, and ``repro trace summary``'s
  per-stage simulation counts match ``EvalStats``.
"""

from __future__ import annotations

import json

import pytest

from repro.core import EcoOptimizer, SearchConfig
from repro.eval import EvalEngine
from repro.kernels import matmul
from repro.machines import get_machine
from repro.obs import (
    Tracer,
    canonical,
    convergence,
    eval_events,
    read_trace,
    render_summary,
    span_nodes,
    validate_event,
)
from repro.obs.report import stage_profiles
from tests.test_search_golden import (
    GOLDEN_CYCLES,
    GOLDEN_POINTS,
    GOLDEN_PREFETCH,
    GOLDEN_VALUES,
)


def _traced_golden_search(jobs: int):
    """The golden mm search (same setup as test_search_golden) with a tracer."""
    machine = get_machine("sgi")
    tracer = Tracer(kernel="mm", machine="sgi", size=24)
    with EvalEngine(machine, jobs=jobs, tracer=tracer) as engine:
        optimizer = EcoOptimizer(
            matmul(), machine, SearchConfig(full_search_variants=2), engine=engine
        )
        result = optimizer.optimize({"N": 24}).result
        tracer.snapshot_metrics(engine.metrics)
    return result, tracer, engine


@pytest.fixture(scope="module")
def traced_serial():
    return _traced_golden_search(jobs=1)


class TestTracingIsAnObserver:
    def test_golden_result_unchanged_with_tracer(self, traced_serial):
        result, _, _ = traced_serial
        assert result.variant.name == "v9"
        assert result.values == GOLDEN_VALUES
        assert {(s.array, s.loop): d for s, d in result.prefetch.items()} == (
            GOLDEN_PREFETCH
        )
        assert result.points == GOLDEN_POINTS
        assert result.cycles == pytest.approx(GOLDEN_CYCLES, rel=1e-12)
        # SearchResult.stats keeps its agreed shape: tracing leaks no keys
        # in; the supervision counters (docs/robustness.md), the
        # simulator-throughput pair (docs/simulator.md) and the delta-
        # evaluation split (docs/search.md) are the only additions beyond
        # the original engine accounting.
        assert set(result.stats) == {
            "memory_hits", "disk_hits", "cache_hits", "simulations",
            "failures", "batches", "wall_seconds", "stages",
            "retries", "timeouts", "pool_restarts", "transient_failures",
            "disk_write_failures",
            "disk_write_failures_enospc", "cache_quarantined",
            "prescreen_skips", "ranker_skips",
            "sim_seconds", "sim_accesses", "full_sims", "delta_sims",
        }

    def test_trace_replays_to_the_golden_best(self, traced_serial):
        result, tracer, _ = traced_serial
        curve = convergence(tracer.events())
        _, cycles, attrs = curve[-1]
        assert cycles == result.cycles
        assert attrs["variant"] == "v9"
        assert attrs["values"] == GOLDEN_VALUES
        assert attrs["prefetch"] == {"A@K": 2, "B@K": 2}

    def test_one_eval_event_per_engine_evaluation(self, traced_serial):
        result, tracer, engine = traced_serial
        evals = eval_events(tracer.events())
        assert len(evals) == engine.stats.evaluations
        sims = [e for e in evals if e["attrs"]["source"] == "sim"]
        assert len(sims) == GOLDEN_POINTS == engine.stats.simulations

    def test_summary_stage_sims_match_eval_stats(self, traced_serial):
        result, tracer, engine = traced_serial
        totals = {
            stage.name: stage
            for stage in stage_profiles(
                node for root in span_nodes(tracer.events())
                for node in root.walk()
            )
        }
        for name, stage in engine.stats.stages.items():
            assert totals[name].sims == stage.simulations, name
            assert totals[name].cache_hits == stage.cache_hits, name
        # and the rendered summary carries the same numbers
        text = render_summary(tracer.events())
        for name, stage in engine.stats.stages.items():
            assert any(
                line.split()[0] == name and int(line.split()[3]) == stage.simulations
                for line in text.splitlines()
                if line.strip().startswith(name)
            ), (name, text)

    def test_eval_events_carry_per_level_counters(self, traced_serial):
        _, tracer, _ = traced_serial
        sims = [e for e in eval_events(tracer.events())
                if e["attrs"]["source"] == "sim" and e["attrs"]["cycles"]]
        assert sims
        for event in sims:
            counters = event["attrs"]["counters"]
            assert set(counters) == {"loads", "l1_misses", "l2_misses", "tlb_misses"}
            assert event["attrs"]["machine_seconds"] > 0


class TestTraceDeterminism:
    def test_j1_and_j4_traces_identical_modulo_timestamps(
        self, traced_serial, host_cpus
    ):
        serial_result, serial_tracer, _ = traced_serial
        parallel_result, parallel_tracer, _ = _traced_golden_search(jobs=4)
        assert parallel_result.values == serial_result.values
        assert parallel_result.cycles == serial_result.cycles
        assert canonical(parallel_tracer.events()) == canonical(
            serial_tracer.events()
        )

    def test_schema_round_trip(self, traced_serial, tmp_path):
        """Every emitted event survives dump -> load -> validate."""
        _, tracer, _ = traced_serial
        path = tmp_path / "golden.trace.jsonl"
        tracer.dump(path)
        load = read_trace(path, validate=True)
        assert load.skipped_lines == 0
        events = load.events
        assert len(events) == len(tracer.events())
        for i, event in enumerate(events):
            validate_event(event, seq=i)
        # JSONL on disk is stable: sorted keys, one object per line
        lines = path.read_text().splitlines()
        assert len(lines) == len(events)
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == sorted(obj)

    def test_rerun_same_jobs_identical_modulo_timestamps(self, traced_serial):
        _, first, _ = traced_serial
        _, second, _ = _traced_golden_search(jobs=1)
        assert canonical(first.events()) == canonical(second.events())
