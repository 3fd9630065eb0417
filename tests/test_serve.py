"""Tuning-as-a-service: protocol canonicalization, the sealed request
store, the fair-share broker, engine reuse, and the daemon end-to-end.

The daemon tests run real (small) searches through a live Unix-socket
server on a background thread (``daemon_thread``).  The golden served
scenario at the end holds the serving gates: warm repeats, duplicate
coalescing, warm-start transfer and trace identity with the one-shot
CLI.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from repro.eval.keys import machine_fingerprint
from repro.kernels import get_kernel
from repro.machines import get_machine, machine_from_dict
from repro.serve import (
    ProtocolError,
    RequestStore,
    SharedWorkerPool,
    canonical_request,
    daemon_thread,
    request_key,
)
from repro.serve.client import ServeClient
from repro.serve.protocol import CONFIG_FIELDS
from repro.serve.store import RECORD_KIND
from repro.storage.atomic import write_sealed


def _key(raw):
    canonical, _ = canonical_request(raw)
    return request_key(canonical)


# -- request canonicalization -------------------------------------------


class TestRequestKey:
    def test_config_key_order_is_irrelevant(self):
        a = _key({"kernel": "mm", "size": 24,
                  "config": {"full_search_variants": 2, "search_padding": True}})
        b = _key({"kernel": "mm", "size": 24,
                  "config": {"search_padding": True, "full_search_variants": 2}})
        assert a == b

    def test_default_equal_values_hash_like_omitted(self):
        from repro.core.search import SearchConfig

        defaults = SearchConfig()
        explicit = {
            "full_search_variants": defaults.full_search_variants,
            "prescreen": defaults.prescreen,
            "search_padding": defaults.search_padding,
        }
        assert _key({"kernel": "mm", "size": 24, "config": explicit}) == \
            _key({"kernel": "mm", "size": 24})

    def test_size_expands_like_problem(self):
        assert _key({"kernel": "mm", "size": 24}) == \
            _key({"kernel": "mm", "problem": {"N": 24}})

    def test_machine_by_name_and_inline_spec_hash_identically(self):
        machine = get_machine("sgi")
        inline = machine_fingerprint(machine)
        assert _key({"kernel": "mm", "size": 24, "machine": "sgi"}) == \
            _key({"kernel": "mm", "size": 24, "machine": inline})

    def test_changed_machine_parameter_changes_key(self):
        spec = machine_fingerprint(get_machine("sgi"))
        tweaked = json.loads(json.dumps(spec))
        tweaked["caches"][0]["capacity"] = spec["caches"][0]["capacity"] * 2
        assert _key({"kernel": "mm", "size": 24, "machine": spec}) != \
            _key({"kernel": "mm", "size": 24, "machine": tweaked})

    def test_different_sizes_never_collide(self):
        keys = {_key({"kernel": "mm", "size": n}) for n in (8, 16, 24, 32, 48)}
        assert len(keys) == 5

    def test_bool_coercion_canonicalizes(self):
        assert _key({"kernel": "mm", "size": 24,
                     "config": {"prescreen": 1}}) == \
            _key({"kernel": "mm", "size": 24, "config": {"prescreen": True}})

    def test_warm_start_and_wait_are_not_identity(self):
        # warm_start changes cost, never the answer — it must dedup
        assert _key({"kernel": "mm", "size": 24, "warm_start": False}) == \
            _key({"kernel": "mm", "size": 24, "warm_start": True})

    def test_unknown_request_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request keys"):
            canonical_request({"kernel": "mm", "size": 24, "sized": 32})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config keys"):
            canonical_request(
                {"kernel": "mm", "size": 24, "config": {"prescren": True}}
            )

    def test_config_keys_are_the_settable_search_knobs(self):
        assert CONFIG_FIELDS == ("full_search_variants", "search_padding", "prescreen")

    @pytest.mark.parametrize("name, value", [
        ("max_linear_rounds", 2), ("prefetch_distances", [1, 2, 4, 8]),
        ("min_tile", 2), ("max_unroll", 16), ("prescreen_margin", 0.29),
        ("ranker_top_k", 1), ("ranker_explore", 1), ("ranker_margin", 0.05),
        ("ranker_seed", 0),
    ])
    def test_retired_config_keys_rejected(self, name, value):
        # the search's fixed step constants are not request knobs, even
        # when spelled at their value
        with pytest.raises(ProtocolError, match="unknown config keys"):
            canonical_request(
                {"kernel": "mm", "size": 24, "config": {name: value}}
            )

    def test_size_and_problem_together_rejected(self):
        with pytest.raises(ProtocolError, match="not both"):
            canonical_request(
                {"kernel": "mm", "size": 24, "problem": {"N": 24}}
            )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ProtocolError, match="unknown kernel"):
            canonical_request({"kernel": "gemm", "size": 24})

    def test_explicit_problem_must_cover_kernel_dims(self):
        kernel = get_kernel("conv2d")
        assert kernel.params  # conv2d carries a filter-size dim
        with pytest.raises(ProtocolError, match="missing dims"):
            canonical_request({"kernel": "conv2d", "problem": {"N": 16}})

    def test_bad_values_rejected(self):
        for raw in (
            {"kernel": "mm", "size": 0},
            {"kernel": "mm", "size": 24, "max_variants": 0},
            {"kernel": "mm", "size": 24, "machine": 7},
            {"kernel": "mm", "size": 24, "config": {"prescreen": "yes"}},
            {"kernel": "mm", "size": 24, "config": {"search_padding": 2}},
            {"kernel": "mm", "size": 24, "config": {"full_search_variants": 0}},
            {"kernel": "mm", "size": 24, "config": {"full_search_variants": -1}},
            {"kernel": "mm", "size": 24,
             "config": {"full_search_variants": "many"}},
        ):
            with pytest.raises(ProtocolError):
                canonical_request(raw)

    def test_hints_carry_serving_extras(self):
        _, hints = canonical_request(
            {"kernel": "mm", "size": 24, "machine": "sgi",
             "warm_start": False}
        )
        assert hints["warm_start"] is False
        assert hints["machine_name"] == get_machine("sgi").name
        assert hints["size"] == 24


def test_machine_from_dict_roundtrip():
    machine = get_machine("sgi")
    rebuilt = machine_from_dict(machine_fingerprint(machine))
    assert dataclasses.asdict(rebuilt) == dataclasses.asdict(machine)
    with pytest.raises((KeyError, TypeError)):
        machine_from_dict({"name": "broken"})


# -- request store ------------------------------------------------------


def _record(kernel="mm", spec="spec-a", problem=None, tag="r"):
    return {
        "request": {"kernel": kernel, "problem": problem or {"N": 24}},
        "machine_spec": spec,
        "winner": {"variant": "v1", "values": {"TI": 8}},
        "tag": tag,
    }


class TestRequestStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = RequestStore(tmp_path / "store")
        assert store.get("k1") is None
        store.put("k1", _record())
        assert store.get("k1")["tag"] == "r"
        # a fresh instance reads the sealed record from disk
        assert RequestStore(tmp_path / "store").get("k1")["tag"] == "r"

    def test_first_writer_wins(self, tmp_path):
        root = tmp_path / "store"
        RequestStore(root).put("k1", _record(tag="first"))
        other = RequestStore(root)
        other.put("k1", _record(tag="second"))
        assert other.get("k1")["tag"] == "first"

    def test_corrupt_record_quarantined_as_miss(self, tmp_path):
        root = tmp_path / "store"
        store = RequestStore(root)
        store.put("k1", _record())
        store.path("k1").write_text('{"broken')
        fresh = RequestStore(root)
        assert fresh.get("k1") is None
        assert not store.path("k1").exists()
        assert list((root / "quarantine").iterdir())

    def test_keys_skip_ranker_artifacts(self, tmp_path):
        store = RequestStore(tmp_path / "store")
        store.put("k1", _record())
        write_sealed(store.ranker_path("k1"), "ranker-model", {"w": []})
        assert store.keys() == ["k1"]

    def test_nearest_is_log_scale_and_filtered(self, tmp_path):
        store = RequestStore(tmp_path / "store")
        store.put("a24", _record(problem={"N": 24}))
        store.put("b96", _record(problem={"N": 96}))
        store.put("wrong-kernel", _record(kernel="matvec", problem={"N": 32}))
        store.put("wrong-spec", _record(spec="spec-b", problem={"N": 32}))
        found = store.nearest("mm", "spec-a", {"N": 32})
        assert found is not None and found[0] == "a24"
        # N=48 is equidistant in log space from 24 and 96: smaller key
        found = store.nearest("mm", "spec-a", {"N": 48})
        assert found is not None and found[0] == "a24"
        # excluding the request's own key never self-donates
        found = store.nearest("mm", "spec-a", {"N": 24}, exclude="a24")
        assert found is not None and found[0] == "b96"
        assert store.nearest("mm", "spec-c", {"N": 24}) is None


# -- fair-share broker --------------------------------------------------


def _tag_task(tag):
    return tag, time.monotonic_ns()


def _sleep_task(seconds):
    time.sleep(seconds)
    return seconds


class TestSharedWorkerPool:
    def test_round_robin_interleaves_tenants(self):
        pool = SharedWorkerPool(1)
        try:
            a = pool.client("a")
            b = pool.client("b")
            # saturate the single slot so every later submit queues in
            # the broker, then release — dispatch order is then purely
            # the round-robin policy
            blocker = a.submit(_sleep_task, 0.3)
            futures = [a.submit(_tag_task, t) for t in ("a1", "a2", "a3")]
            futures += [b.submit(_tag_task, t) for t in ("b1", "b2")]
            blocker.result(timeout=30)
            done = [f.result(timeout=30) for f in futures]
            order = [tag for tag, _ in sorted(done, key=lambda r: r[1])]
            assert order == ["a1", "b1", "a2", "b2", "a3"]
            assert pool.submitted == 6
        finally:
            pool.close()

    def test_recycle_keeps_serving(self):
        pool = SharedWorkerPool(1)
        try:
            client = pool.client()
            assert client.submit(_tag_task, "x").result(timeout=30)[0] == "x"
            client.recycle()
            assert pool.recycles == 1
            assert client.submit(_tag_task, "y").result(timeout=30)[0] == "y"
        finally:
            pool.close()

    def test_close_rejects_and_cancels(self):
        pool = SharedWorkerPool(1)
        client = pool.client()
        blocker = client.submit(_sleep_task, 5)
        queued = client.submit(_tag_task, "never")
        pool.close()
        assert queued.cancelled()
        with pytest.raises(RuntimeError):
            client.submit(_tag_task, "rejected")
        del blocker


# -- engine reuse -------------------------------------------------------


def test_reset_for_search_reuses_caches_for_identical_answer():
    from repro.core import EcoOptimizer, SearchConfig
    from repro.eval import EvalEngine
    from repro.obs import MetricsRegistry

    machine = get_machine("sgi")
    kernel = get_kernel("mm")
    config = SearchConfig(full_search_variants=1)
    engine = EvalEngine(machine)
    try:
        first = EcoOptimizer(kernel, machine, config, max_variants=4,
                             engine=engine).optimize({"N": 12})
        assert first.result.stats["simulations"] > 0
        engine.reset_for_search(metrics=MetricsRegistry())
        second = EcoOptimizer(kernel, machine, config, max_variants=4,
                              engine=engine).optimize({"N": 12})
    finally:
        engine.close()
    # the retained in-memory cache answers the whole second search
    assert second.result.stats["simulations"] == 0
    assert second.result.variant.name == first.result.variant.name
    assert second.result.values == first.result.values


# -- daemon end-to-end --------------------------------------------------

_FAST = {"full_search_variants": 1}


def _request(size, **extra):
    return {"kernel": "mm", "machine": "sgi", "size": size,
            "max_variants": 4, "config": dict(_FAST), **extra}


@pytest.fixture(scope="class")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    with daemon_thread(root / "serve.sock", root / "store",
                       cache_dir=str(root / "cache")) as daemon:
        yield ServeClient(root / "serve.sock"), daemon


@pytest.mark.usefixtures("served")
class TestDaemon:
    def test_submit_runs_and_repeat_is_stored(self, served):
        client, daemon = served
        first = client.submit(_request(12), wait=True)
        assert first["state"] == "done"
        assert first["winner"]["values"]
        assert first["served"]["sims"] > 0
        again = client.submit(_request(12), wait=True)
        assert again["key"] == first["key"]
        assert again.get("cached") is True
        assert again["winner"] == first["winner"]
        assert daemon.counters["store_hits"] >= 1
        # the answer is sealed on disk, not just in memory
        assert daemon.store.get(first["key"])["winner"] == first["winner"]

    def test_status_and_result(self, served):
        client, _ = served
        key = client.submit(_request(12), wait=True)["key"]
        assert client.status(key)["state"] == "done"
        result = client.result(key)
        assert result["state"] == "done"
        assert result["winner"]["variant"]
        with pytest.raises(RuntimeError, match="unknown key"):
            client.status("no-such-key")
        with pytest.raises(RuntimeError, match="unknown key"):
            client.result("no-such-key")

    def test_trace_is_canonical_and_served_on_request(self, served):
        client, _ = served
        reply = client.submit(_request(12), wait=True, trace=True)
        events = reply["trace"]
        assert events and events[0]["type"] == "meta"
        assert all("ts" not in e for e in events)

    def test_malformed_request_is_an_error_not_a_crash(self, served):
        client, _ = served
        with pytest.raises(RuntimeError, match="unknown config keys"):
            client.submit({"kernel": "mm", "size": 12,
                           "config": {"bogus": 1}})
        assert client.ping()["op"] == "pong"

    def test_warm_start_transfers_from_nearest(self, served):
        client, daemon = served
        cold = client.submit(_request(12), wait=True)
        warm = client.submit(_request(16), wait=True)
        assert warm["served"]["warm_start"] is True
        assert warm["served"]["donor"] == cold["key"]
        assert daemon.counters["warm_starts"] >= 1

    def test_warm_start_opt_out(self, served):
        client, _ = served
        reply = client.submit(_request(10, warm_start=False), wait=True)
        assert reply["served"]["warm_start"] is False
        assert reply["served"]["donor"] is None

    def test_concurrent_duplicates_coalesce(self, served):
        client, daemon = served
        before = daemon.counters["searches"]
        first = client.submit(_request(20))
        second = client.submit(_request(20))
        assert second["key"] == first["key"]
        assert second.get("dedup") or second.get("cached")
        done = client.result(first["key"], wait=True)
        assert done["state"] == "done"
        assert daemon.counters["searches"] == before + 1

    def test_watch_streams_until_done(self, served):
        client, _ = served
        key = client.submit(_request(22))["key"]
        lines = list(client.watch(key))
        assert lines[-1]["done"] is True
        assert lines[-1]["state"] == "done"
        # either we attached while live (events streamed) or the search
        # finished first (immediate final line) — both are valid serves
        if len(lines) > 1:
            assert lines[0].get("watching") is True

    def test_stats_op(self, served):
        client, _ = served
        stats = client.stats()
        counters = stats["counters"]
        assert counters["requests"] >= counters["searches"] > 0
        assert stats["store_keys"] > 0
        assert stats["engines"] >= 1


def test_shutdown_drains_in_flight(tmp_path):
    with daemon_thread(tmp_path / "s.sock", tmp_path / "store") as daemon:
        client = ServeClient(tmp_path / "s.sock")
        key = client.submit(_request(26))["key"]
        reply = client.shutdown()
        assert reply["drained"] == 1
        assert daemon.store.get(key) is not None


class _WriterRecordingDict(dict):
    """A counters dict that records which thread wrote each key."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writers = []

    def __setitem__(self, key, value):
        self.writers.append((key, threading.current_thread().name))
        super().__setitem__(key, value)


def test_counters_are_written_on_the_event_loop(tmp_path):
    with daemon_thread(tmp_path / "s.sock", tmp_path / "store") as daemon:
        daemon.counters = _WriterRecordingDict(daemon.counters)
        client = ServeClient(tmp_path / "s.sock")
        client.submit(_request(12), wait=True)
        warm = client.submit(_request(16), wait=True)
        assert warm["served"]["warm_start"] is True
        assert daemon.counters["searches"] == 2
        assert daemon.counters["warm_starts"] == 1
    written = {key for key, _ in daemon.counters.writers}
    assert {"requests", "searches", "warm_starts"} <= written
    # daemon_thread runs the event loop on its "repro-serve" thread
    assert {thread for _, thread in daemon.counters.writers} == {"repro-serve"}


def test_served_store_is_doctor_clean(tmp_path):
    from repro.storage.doctor import run_doctor

    with daemon_thread(tmp_path / "s.sock", tmp_path / "store",
                       cache_dir=str(tmp_path / "cache")) as daemon:
        client = ServeClient(tmp_path / "s.sock")
        client.submit(_request(12), wait=True)
    report = run_doctor(cache=str(tmp_path / "cache"))
    assert report.healthy
    assert daemon.store.keys()


# -- the golden served scenario -----------------------------------------
#
# The golden mm family (``full_search_variants=2`` on the sgi mini
# machine, the search pinned by tests/test_search_golden.py) on fresh
# ``-j1`` daemons: a cold N=24 request, its repeat and a cold N=32 on
# one daemon; a back-to-back duplicate N=24 and a warm-started N=32 on
# a second.  Everything but the warm-repeat speedup is deterministic.

_GOLDEN = {"kernel": "mm", "machine": "sgi",
           "config": {"full_search_variants": 2}}


def _one_shot_trace(config, size):
    """The canonical trace of the one-shot ``repro tune`` recipe on the
    sgi mini machine at ``-j1`` — what a served request must match
    byte-for-byte (docs/serving.md, "Determinism contract")."""
    from repro.core import EcoOptimizer
    from repro.eval import EvalEngine
    from repro.obs import Tracer, canonical

    machine = get_machine("sgi")
    tracer = Tracer(command="tune", kernel="mm", machine=machine.name,
                    size=size, jobs=1)
    with EvalEngine(machine, jobs=1, tracer=tracer) as engine:
        EcoOptimizer(get_kernel("mm"), machine, config,
                     engine=engine).optimize({"N": size})
        tracer.snapshot_metrics(engine.metrics)
    return canonical(tracer.events())


def _same_json(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    run = {}
    with daemon_thread(root / "s1.sock", root / "store1", jobs=1):
        client = ServeClient(root / "s1.sock")
        start = time.perf_counter()
        run["cold"] = client.submit(dict(_GOLDEN, size=24), wait=True,
                                    trace=True)
        cold_wall = time.perf_counter() - start
        searches = client.stats()["counters"]["searches"]
        start = time.perf_counter()
        run["warm"] = client.submit(dict(_GOLDEN, size=24), wait=True)
        warm_wall = time.perf_counter() - start
        run["warm_new_searches"] = (
            client.stats()["counters"]["searches"] - searches
        )
        run["warm_speedup"] = cold_wall / max(1e-6, warm_wall)
        run["cold32"] = client.submit(
            dict(_GOLDEN, size=32, warm_start=False), wait=True
        )
    with daemon_thread(root / "s2.sock", root / "store2", jobs=1):
        client = ServeClient(root / "s2.sock")
        first = client.submit(dict(_GOLDEN, size=24))
        run["second"] = client.submit(dict(_GOLDEN, size=24))
        run["dedup"] = client.result(first["key"], wait=True)
        run["dedup_counters"] = client.stats()["counters"]
        run["warm32"] = client.submit(dict(_GOLDEN, size=32), wait=True)
    return run


class TestGoldenServedScenario:
    def test_repeat_answers_from_store(self, golden):
        assert golden["warm"].get("cached") is True
        assert golden["warm_new_searches"] == 0
        assert golden["warm_speedup"] >= 10
        assert golden["warm"]["winner"] == golden["cold"]["winner"]

    def test_duplicate_coalesces(self, golden):
        second = golden["second"]
        assert second.get("dedup") or second.get("cached")
        counters = golden["dedup_counters"]
        assert counters["dedup_hits"] / max(1, counters["requests"]) >= 0.25
        assert golden["dedup"]["winner"] == golden["cold"]["winner"]

    def test_warm_start_transfers(self, golden):
        cold, warm = golden["cold32"]["served"], golden["warm32"]["served"]
        assert warm["warm_start"] is True
        assert 1.0 - warm["sims"] / max(1, cold["sims"]) >= 0.20
        assert golden["warm32"]["winner"] == golden["cold32"]["winner"]

    def test_trace_matches_one_shot(self, golden):
        from repro.core import SearchConfig

        direct = _one_shot_trace(SearchConfig(full_search_variants=2), 24)
        assert _same_json(golden["cold"]["trace"], direct)


def test_default_submit_matches_default_tune(tmp_path):
    """``repro submit`` and ``repro tune`` at their defaults run the same
    search: same canonical trace, prescreen included."""
    from repro.__main__ import _parser, _submit_request
    from repro.core import SearchConfig

    args = _parser().parse_args(["submit", "mm", "--size", "24"])
    with daemon_thread(tmp_path / "s.sock", tmp_path / "store", jobs=1):
        served = ServeClient(tmp_path / "s.sock").submit(
            _submit_request(args), wait=True, trace=True
        )
    direct = _one_shot_trace(SearchConfig(prescreen=True), 24)
    assert _same_json(served["trace"], direct)
