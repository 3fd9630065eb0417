"""Unit tests for repro.obs: tracer, metrics, schema, reader, renderers."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    canonical,
    convergence,
    eval_events,
    read_trace,
    render_convergence,
    render_summary,
    render_timeline,
    span_nodes,
    to_chrome_trace,
    trace_meta,
    validate_event,
)
from repro.obs.report import stage_profiles


def _sample_trace() -> Tracer:
    """A small hand-built trace shaped like a real search."""
    tracer = Tracer(kernel="mm", machine="sgi")
    with tracer.span("search", kernel="mm") as search:
        with tracer.span("stage", stage="screen") as stage:
            tracer.event("eval", variant="v1", values={"TI": 4}, source="sim",
                         cycles=100.0, machine_seconds=0.002)
            tracer.event("eval", variant="v2", values={"TI": 8}, source="sim",
                         cycles=80.0, machine_seconds=0.001)
            tracer.event("eval", variant="v3", values={"TI": 0}, source="sim",
                         cycles=None)
            stage.set(simulations=3, cache_hits=0)
        with tracer.span("stage", stage="tiling") as stage:
            tracer.event("eval", variant="v2", values={"TI": 16}, source="memory",
                         cycles=90.0, machine_seconds=0.001)
            stage.set(simulations=0, cache_hits=1)
        search.set(variant="v2", cycles=80.0)
    return tracer


class TestTracer:
    def test_span_nesting_and_seq(self):
        events = _sample_trace().events()
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["type"] == "meta"
        begins = [e for e in events if e["type"] == "span_begin"]
        ends = [e for e in events if e["type"] == "span_end"]
        assert len(begins) == len(ends) == 3
        # the stage spans are children of the search span
        search_id = begins[0]["span"]
        assert begins[1]["parent"] == search_id
        assert begins[2]["parent"] == search_id

    def test_end_attrs_land_on_span_end(self):
        events = _sample_trace().events()
        search_end = [e for e in events
                      if e["type"] == "span_end" and e["name"] == "search"][0]
        assert search_end["attrs"] == {"variant": "v2", "cycles": 80.0}

    def test_events_attributed_to_innermost_span(self):
        events = _sample_trace().events()
        stage_id = [e for e in events if e["type"] == "span_begin"
                    and e.get("attrs", {}).get("stage") == "screen"][0]["span"]
        evals = [e for e in events if e["type"] == "event"][:3]
        assert all(e["span"] == stage_id for e in evals)

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError("boom")
        assert tracer.events()[-1]["type"] == "span_end"
        # stack unwound: a new span is top-level again
        with tracer.span("next"):
            pass
        assert "parent" not in tracer.events()[-1]

    def test_every_event_validates(self):
        for i, event in enumerate(_sample_trace().events()):
            validate_event(event, seq=i)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = _sample_trace()
        path = tmp_path / "t.jsonl"
        tracer.dump(path)
        load = read_trace(path, validate=True)
        assert load.skipped_lines == 0
        assert load.events == json.loads(
            "[" + ",".join(json.dumps(e) for e in tracer.events()) + "]"
        )

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as span:
            span.set(y=2)
            NULL_TRACER.event("eval", cycles=1.0)
        NULL_TRACER.snapshot_metrics(MetricsRegistry())
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.enabled is False

    def test_meta_event_carries_schema_version(self):
        events = Tracer(run="x").events()
        meta = trace_meta(events)
        assert meta["schema"] == "1.2" and meta["run"] == "x"


class TestSchemaValidation:
    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            validate_event({"seq": 0, "ts": 0.0, "type": "event", "name": "x",
                            "bogus": 1})

    def test_rejects_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            validate_event({"seq": 0, "ts": 0.0, "type": "event"})

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"seq": 0, "ts": 0.0, "type": "nope", "name": "x"})

    def test_rejects_out_of_order_seq(self):
        with pytest.raises(ValueError, match="out of order"):
            validate_event({"seq": 5, "ts": 0.0, "type": "event", "name": "x"},
                           seq=4)

    def test_rejects_dur_outside_span_end(self):
        with pytest.raises(ValueError, match="dur only"):
            validate_event({"seq": 0, "ts": 0.0, "type": "event", "name": "x",
                            "dur": 1.0})

    def test_rejects_empty_attrs(self):
        with pytest.raises(ValueError, match="attrs"):
            validate_event({"seq": 0, "ts": 0.0, "type": "event", "name": "x",
                            "attrs": {}})


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(0.5)
        hist = reg.histogram("h")
        for v in (1.0, 3.0, 100.0):
            hist.observe(v)
        snap = reg.as_dict()
        assert snap["c"] == {"kind": "counter", "value": 3}
        assert snap["g"] == {"kind": "gauge", "value": 0.5}
        assert snap["h"]["count"] == 3
        assert snap["h"]["sum"] == 104.0
        assert snap["h"]["min"] == 1.0 and snap["h"]["max"] == 100.0
        assert snap["h"]["buckets"] == {"le_2^0": 1, "le_2^2": 1, "le_2^7": 1}

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_ignores_non_finite(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(math.inf)
        hist.observe(math.nan)
        assert hist.count == 0

    def test_snapshot_order_is_first_registered(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.counter(name)
        assert list(reg.as_dict()) == ["zeta", "alpha", "mid"]

    def test_snapshot_into_trace(self):
        reg = MetricsRegistry()
        reg.counter("sims").inc(7)
        tracer = Tracer()
        tracer.snapshot_metrics(reg)
        metric = tracer.events()[-1]
        assert metric["type"] == "metric" and metric["name"] == "sims"
        assert metric["attrs"]["value"] == 7


class TestReader:
    def test_canonical_strips_only_timing(self):
        events = _sample_trace().events()
        stripped = canonical(events)
        for raw, slim in zip(events, stripped):
            assert "ts" not in slim and "dur" not in slim
            assert {k: v for k, v in raw.items() if k not in ("ts", "dur")} == slim

    def test_eval_events_and_convergence(self):
        events = _sample_trace().events()
        evals = eval_events(events)
        assert len(evals) == 4
        curve = convergence(events)
        assert [(i, c) for i, c, _ in curve] == [(0, 100.0), (1, 80.0)]

    def test_stage_profiles_first_seen_order(self):
        (search,) = span_nodes(_sample_trace().events())
        screen, tiling = stage_profiles(search.walk())
        assert (screen.name, tiling.name) == ("screen", "tiling")
        assert screen.sims == 3
        assert screen.machine_seconds == pytest.approx(0.003)
        assert tiling.cache_hits == 1
        assert tiling.machine_seconds == 0.0  # hit, not a sim

    def test_span_tree(self):
        roots = span_nodes(_sample_trace().events())
        assert [r.name for r in roots] == ["search"]
        assert [c.attrs["stage"] for c in roots[0].children] == ["screen", "tiling"]
        assert roots[0].attrs["variant"] == "v2"  # begin+end attrs merged
        screen = roots[0].children[0]
        assert screen.parent is roots[0]
        assert [e["attrs"]["variant"] for e in screen.evals] == ["v1", "v2", "v3"]
        assert screen.enclosing("search") is roots[0]
        assert screen.enclosing("variant") is None


class TestRenderers:
    def test_summary_counts(self):
        text = render_summary(_sample_trace().events())
        assert "4 (3 simulated, 1 cached, 1 infeasible)" in text
        assert "screen" in text and "tiling" in text
        assert "best: 80.0 cycles" in text

    def test_timeline_has_all_spans(self):
        text = render_timeline(_sample_trace().events())
        assert "search:mm" in text
        assert "stage:screen" in text and "stage:tiling" in text

    def test_convergence_rendering(self):
        text = render_convergence(_sample_trace().events())
        assert "2 improvements over 4 evaluations" in text
        assert "20.0% better" in text

    def test_chrome_trace_shape(self):
        chrome = to_chrome_trace(_sample_trace().events())
        phases = [e["ph"] for e in chrome["traceEvents"]]
        assert phases.count("X") == 3  # one per span
        assert phases.count("i") == 4  # one per eval event
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"search", "stage", "eval"} <= names
        # must be JSON-serializable (no inf/nan leaks)
        json.dumps(chrome)
