"""Trace corpus + model-accuracy observatory (ISSUE 7).

The contracts under test:

* the flattened per-candidate corpus table is byte-deterministic across
  job counts and host CPU counts (``-j1``, and ``-j4`` with and without
  speculation), and the content address dedups those recordings to one
  corpus entry;
* the accuracy report is byte-stable on the committed reference trace
  ``results/traces/mm_sgi_r10k.trace.jsonl`` and reproduces the margin
  calibration documented in docs/search.md: worst observed misranking
  ~1.273x (sun/ultrasparc-mini), >= 25 % of simulations avoided at the
  default margin 0.29 (sgi), and a seeded audit of a prescreen-on run
  re-simulating skips finds no false skip;
* ``repro profile`` attribution rows sum to the search span's wall time
  (within 1 %), with per-eval ``wall`` attrs present on schema-1.1
  traces and a graceful degrade on older ones;
* the tolerant reader skips-and-counts truncated lines, applies the
  schema-version compatibility rule, and the renderers announce rather
  than crash on zero-evaluation traces.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.surrogate import DEFAULT_MARGIN
from repro.core import EcoOptimizer, SearchConfig
from repro.eval import EvalEngine
from repro.kernels import matmul
from repro.machines import get_machine
from repro.obs import (
    Corpus,
    Tracer,
    canonical,
    check_schema_version,
    delta_totals,
    eval_events,
    flatten_trace,
    parse_schema_version,
    read_trace,
    render_convergence,
    render_summary,
    stage_totals,
    trace_id,
)
from repro.obs.accuracy import analyze_trace, render_accuracy
from repro.obs.corpus import ROW_COLUMNS, rows_to_csv, rows_to_jsonl
from repro.obs.profile import profile_trace, render_profile, self_times
from tests.conftest import forced_cpu_count
from tests.test_search_golden import GOLDEN_CYCLES, GOLDEN_VALUES

REFERENCE_TRACE = "results/traces/mm_sgi_r10k.trace.jsonl"

#: the determinism matrix: (job count, forced host CPU count) — ``-j4``
#: speculates only on the multi-CPU host
VENUES = ((1, 1), (4, 1), (4, 8))


def _traced_search(machine_name: str, jobs: int = 1, **config):
    machine = get_machine(machine_name)
    tracer = Tracer(kernel="mm", machine=machine_name, size=24)
    with EvalEngine(machine, jobs=jobs, tracer=tracer) as engine:
        optimizer = EcoOptimizer(
            matmul(), machine,
            SearchConfig(full_search_variants=2, **config), engine=engine,
        )
        result = optimizer.optimize({"N": 24}).result
        tracer.snapshot_metrics(engine.metrics)
    return result, tracer


def _traced_search_on(cpus: int, jobs: int):
    with forced_cpu_count(cpus):
        return _traced_search("sgi", jobs=jobs)


@pytest.fixture(scope="module")
def venue_traces():
    """The golden mm@sgi search recorded once per (jobs, host CPUs) cell."""
    return {
        (jobs, cpus): _traced_search_on(cpus, jobs)
        for jobs, cpus in VENUES
    }


@pytest.fixture(scope="module")
def sgi_events(venue_traces):
    return venue_traces[(1, 1)][1].events()


@pytest.fixture(scope="module")
def sun_trace():
    """Fresh golden search on the machine the margin was calibrated on."""
    return _traced_search("sun")


@pytest.fixture(scope="module")
def prescreened_trace():
    """The sgi golden search with the model prescreen ON (skips traced)."""
    return _traced_search("sgi", prescreen=True)


@pytest.fixture(scope="module")
def reference_load():
    return read_trace(REFERENCE_TRACE)


class TestCorpusTableDeterminism:
    def test_trace_id_identical_across_venues(self, venue_traces):
        ids = {trace_id(tracer.events())
               for _, tracer in venue_traces.values()}
        assert len(ids) == 1

    def test_flattened_rows_identical_across_venues(self, venue_traces):
        tables = [flatten_trace(tracer.events(), "t")
                  for _, tracer in venue_traces.values()]
        assert tables[0]
        for other in tables[1:]:
            assert other == tables[0]

    def test_csv_export_byte_identical_across_venues(self, venue_traces):
        blobs = {rows_to_csv(flatten_trace(tracer.events(), "t"))
                 for _, tracer in venue_traces.values()}
        assert len(blobs) == 1
        blob = blobs.pop()
        assert blob.startswith(",".join(ROW_COLUMNS) + "\n")

    def test_rows_carry_the_full_candidate_story(self, sgi_events):
        rows = flatten_trace(sgi_events, "t")
        assert len(rows) == len(eval_events(sgi_events))
        assert all(set(row) == set(ROW_COLUMNS) for row in rows)
        assert {row["kernel"] for row in rows} == {"mm"}
        assert {row["machine"] for row in rows} == {"sgi-r10k-mini"}
        assert {row["problem"].get("N") for row in rows} == {24}
        assert {row["stage"] for row in rows} <= {
            "screen", "tiling", "prefetch", "padding"}
        assert {row["kind"] for row in rows} <= {"cache", "full", "delta"}
        # the kind column agrees with the engine's own delta accounting
        deltas = delta_totals(sgi_events)
        assert sum(1 for r in rows if r["kind"] == "delta") == int(
            deltas.get("eval.delta_sims", 0))
        ok = [r for r in rows if r["status"] == "ok"]
        assert ok and all(r["cycles"] is not None for r in ok)
        sims = [r for r in ok if r["source"] == "sim"]
        assert sims and all(
            r["loads"] and r["machine_seconds"] > 0 for r in sims)

    def test_jsonl_export_round_trips(self, sgi_events):
        rows = flatten_trace(sgi_events, "t")
        lines = rows_to_jsonl(rows).splitlines()
        assert [json.loads(line) for line in lines] == rows


class TestCorpusIngest:
    def test_ingest_dedups_across_venues(self, venue_traces, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        paths = {}
        for (jobs, cpus), (_, tracer) in venue_traces.items():
            path = tmp_path / f"j{jobs}-cpus{cpus}.trace.jsonl"
            tracer.dump(path)
            paths[(jobs, cpus)] = path
        first = corpus.ingest(str(paths[(1, 1)]))
        assert first.new and first.warnings == []
        for key in ((4, 1), (4, 8)):
            again = corpus.ingest(str(paths[key]))
            assert not again.new
            assert again.id == first.id
        assert [e["id"] for e in corpus.entries()] == [first.id]
        entry = first.entry
        assert entry["schema"] == "1.2"
        assert entry["searches"] == [{
            "kernel": "mm", "machine": "sgi-r10k-mini", "problem": {"N": 24},
        }]
        assert entry["evals"] == entry["sims"] + entry["cache_hits"]
        assert entry["skipped_lines"] == 0

    def test_corpus_read_side(self, venue_traces, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        path = tmp_path / "golden.trace.jsonl"
        venue_traces[(1, 1)][1].dump(path)
        result = corpus.ingest(str(path))
        rows = corpus.rows(result.id)
        assert rows == corpus.rows()  # single-entry corpus
        assert {row["trace"] for row in rows} == {result.id}
        stats = corpus.stats()
        assert stats["traces"] == 1 and stats["searches"] == 1
        assert stats["evals"] == len(rows)
        assert stats["per_kernel"] == {"mm": 1}
        assert stats["per_machine"] == {"sgi-r10k-mini": 1}
        assert corpus.export("csv").startswith(",".join(ROW_COLUMNS))
        with pytest.raises(ValueError):
            corpus.export("parquet")
        # the index on disk is byte-deterministic: a sealed record whose
        # canonical re-serialization reproduces the exact bytes
        from repro.obs.corpus import Corpus as C
        from repro.storage import open_record, seal_record

        on_disk = (tmp_path / "corpus" / "index.json").read_text()
        body = open_record(on_disk, C.INDEX_RECORD_KIND)
        assert on_disk == seal_record(C.INDEX_RECORD_KIND, body)

    def test_ingest_legacy_schema_1_trace(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        result = corpus.ingest(REFERENCE_TRACE)
        assert result.new and result.warnings == []
        assert result.entry["schema"] == 1
        assert result.entry["evals"] == 73
        rows = corpus.rows(result.id)
        # pre-1.1 traces carry no delta marks: every sim reads as full
        assert {row["kind"] for row in rows} == {"full"}

    def test_ingest_truncated_trace_records_skip(self, venue_traces, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        whole = tmp_path / "whole.trace.jsonl"
        venue_traces[(1, 1)][1].dump(whole)
        torn = tmp_path / "torn.trace.jsonl"
        text = whole.read_text()
        torn.write_text(text[: len(text) - 40])  # tear the final line
        result = corpus.ingest(str(torn))
        assert result.new
        assert result.entry["skipped_lines"] == 1
        assert result.entry["events"] == len(text.splitlines()) - 1


class TestAccuracyReport:
    def test_reference_report_is_byte_stable(self, reference_load):
        events = reference_load.events
        first = render_accuracy(analyze_trace(events))
        second = render_accuracy(analyze_trace(events))
        assert first == second

    def test_reference_report_pins(self, reference_load):
        """The committed trace's calibration numbers, pinned exactly.

        These move only when the surrogate model (or the trace) changes
        — which is precisely when a human should re-read the curve.
        """
        text = render_accuracy(analyze_trace(reference_load.events))
        assert "model accuracy — mm @ sgi-r10k-mini (N=24)" in text
        assert "evaluations: 73 (73 simulated, 0 cache hits)" in text
        assert "tiling candidates: 53 unique measured, 53 scorable" in text
        assert "rank correlation (score vs cycles): +0.4670" in text
        assert "worst misranking: 1.294x" in text
        assert "<- default" in text

    def test_reference_sweep_numbers(self, reference_load):
        (analysis,) = analyze_trace(reference_load.events)
        (point,) = [p for p in analysis.sweep if p.margin == DEFAULT_MARGIN]
        assert point.skips == 17
        assert point.false_skips == 1
        assert point.avoided_frac == pytest.approx(17 / 73)
        # more margin, fewer skips: the curve is monotone
        skips = [p.skips for p in analysis.sweep]
        assert skips == sorted(skips, reverse=True)

    def test_fresh_sgi_reproduces_pruning_floor(self, sgi_events):
        """docs/search.md: >= 25 % of simulations avoided at margin 0.29."""
        (analysis,) = analyze_trace(sgi_events)
        assert analysis.spearman is not None and analysis.spearman > 0.3
        (point,) = [p for p in analysis.sweep if p.margin == DEFAULT_MARGIN]
        assert point.avoided_frac >= 0.25

    def test_fresh_sun_reproduces_worst_misranking(self, sun_trace):
        """docs/search.md: margin calibrated against the 1.273x worst
        misranking observed on sun-ultrasparc-mini."""
        _, tracer = sun_trace
        (analysis,) = analyze_trace(tracer.events())
        assert analysis.worst is not None
        assert analysis.worst.ratio == pytest.approx(1.273, abs=1e-3)
        # the calibration invariant: the default margin absorbs it
        assert DEFAULT_MARGIN > analysis.worst.ratio - 1.0

    def test_empty_trace_reports_no_searches(self):
        assert "no search spans found" in render_accuracy(analyze_trace([]))


class TestPrescreenAudit:
    def test_prescreened_search_keeps_the_golden_winner(
            self, prescreened_trace):
        result, _ = prescreened_trace
        assert result.values == GOLDEN_VALUES
        assert result.cycles == pytest.approx(GOLDEN_CYCLES, rel=1e-12)

    def test_seeded_audit_finds_no_false_skips(self, prescreened_trace):
        _, tracer = prescreened_trace
        (analysis,) = analyze_trace(tracer.events(), audit=5, seed=42)
        audit = analysis.audit
        assert audit is not None
        assert audit.total_skips > 0
        assert audit.sampled == 5
        assert audit.false_skips == 0 and audit.rate == 0.0
        for record in audit.records:
            assert record.cycles is not None  # skips re-simulate feasibly
            assert record.best_cycles is not None

    def test_audit_is_deterministic_given_its_seed(self, prescreened_trace):
        _, tracer = prescreened_trace
        events = tracer.events()
        (first,) = analyze_trace(events, audit=3, seed=7)
        (second,) = analyze_trace(events, audit=3, seed=7)
        assert first.audit.records == second.audit.records

    def test_oversized_sample_audits_every_skip(self, prescreened_trace):
        _, tracer = prescreened_trace
        events = tracer.events()
        (analysis,) = analyze_trace(events, audit=10_000, seed=42)
        audit = analysis.audit
        assert audit.sampled == audit.total_skips == len(audit.records)
        rendered = render_accuracy([analysis])
        assert f"re-simulated {audit.sampled}/{audit.total_skips}" in rendered


class TestProfile:
    def test_attribution_sums_to_search_wall(self, sgi_events):
        (profile,) = profile_trace(sgi_events)
        assert profile.wall > 0
        covered = sum(s.wall for s in profile.stages)
        covered += profile.outside_eval_wall
        covered += max(0.0, profile.unattributed)
        assert covered == pytest.approx(profile.wall, rel=0.01)
        assert render_profile(sgi_events).count("(100.0%)") == 1

    def test_eval_walls_present_on_current_schema(self, sgi_events):
        (profile,) = profile_trace(sgi_events)
        assert profile.has_eval_walls
        by_name = {s.name: s for s in profile.stages}
        assert by_name["tiling"].eval_wall > 0
        totals = stage_totals(sgi_events)
        for stage in profile.stages:
            assert stage.sims == int(totals[stage.name]["simulations"])
            assert stage.cache_hits == int(totals[stage.name]["cache_hits"])

    def test_legacy_trace_degrades_gracefully(self, reference_load):
        (profile,) = profile_trace(reference_load.events)
        assert not profile.has_eval_walls
        text = render_profile(reference_load.events)
        assert "predates schema 1.1" in text
        assert "search profile — mm @ sgi-r10k-mini" in text

    def test_self_times_cover_the_span_tree(self, sgi_events):
        rows = self_times(sgi_events)
        labels = {label for label, _, _ in rows}
        assert "stage:tiling" in labels and "search" in labels
        assert all(wall >= 0 for _, wall, _ in rows)
        walls = [wall for _, wall, _ in rows]
        assert walls == sorted(walls, reverse=True)


class TestEvalEventTimingAttrs:
    def test_sim_events_carry_wall_seconds(self, sgi_events):
        sims = [e for e in eval_events(sgi_events)
                if e["attrs"].get("source") == "sim"]
        assert sims
        for event in sims:
            assert event["attrs"]["wall"] >= 0

    def test_canonical_strips_wall_but_keeps_delta(self, sgi_events):
        deltas = int(delta_totals(sgi_events).get("eval.delta_sims", 0))
        projected = eval_events(canonical(sgi_events))
        assert all("wall" not in e["attrs"] for e in projected)
        assert sum(
            1 for e in projected if e["attrs"].get("delta")) == deltas


class TestReaderHardening:
    def test_truncated_trace_skips_and_counts(self, venue_traces, tmp_path):
        path = tmp_path / "torn.trace.jsonl"
        venue_traces[(1, 1)][1].dump(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        load = read_trace(path, validate=True)
        assert load.skipped_lines == 1
        assert len(load.events) == len(text.splitlines()) - 1
        summary = render_summary(
            load.events, skipped_lines=load.skipped_lines,
            warnings=load.warnings)
        assert "skipped 1 unreadable line(s)" in summary

    def test_newer_minor_warns_unknown_major_refuses(self, tmp_path):
        def meta_line(schema):
            return json.dumps({
                "seq": 0, "ts": 0.0, "type": "meta", "name": "trace",
                "attrs": {"schema": schema},
            }) + "\n"

        newer = tmp_path / "newer.trace.jsonl"
        newer.write_text(meta_line("1.9"))
        load = read_trace(newer)
        assert any("newer" in w for w in load.warnings)
        assert "warning:" in render_summary(
            load.events, warnings=load.warnings)

        alien = tmp_path / "alien.trace.jsonl"
        alien.write_text(meta_line("2.0"))
        with pytest.raises(ValueError, match="major 2 is not supported"):
            read_trace(alien)

    def test_schema_version_parsing_rules(self):
        assert parse_schema_version(1) == (1, 0)
        assert parse_schema_version("1.1") == (1, 1)
        assert check_schema_version(1) is None
        assert check_schema_version("1.1") is None
        with pytest.raises(ValueError):
            parse_schema_version("one.two")

    def test_zero_eval_trace_announces_itself(self):
        events = [
            {"seq": 0, "ts": 0.0, "type": "meta", "name": "trace",
             "attrs": {"schema": "1.1", "kernel": "mm"}},
            {"seq": 1, "ts": 0.0, "type": "span_begin", "name": "search",
             "span": "s0", "attrs": {"kernel": "mm"}},
            {"seq": 2, "ts": 1.0, "type": "span_end", "name": "search",
             "span": "s0", "dur": 1.0},
        ]
        assert "no evaluations recorded" in render_summary(events)
        assert "no evaluations recorded" in render_convergence(events)
