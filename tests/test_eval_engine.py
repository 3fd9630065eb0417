"""Evaluation-engine tests: keys, cache layers, parallelism, accounting.

Covers the contract the searches rely on: cache keys are stable across
processes (the basis of the on-disk cache), hit/miss accounting is exact,
parallel evaluation returns byte-identical results in the same order as
serial, corrupted on-disk entries degrade to re-simulation, and a search
re-run against a warm cache performs zero simulator invocations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core import GuidedSearch, SearchConfig, derive_variants
from repro.core.variants import PrefetchSite
from repro.eval import (
    CachedResult,
    EvalEngine,
    EvalRequest,
    ResultCache,
    candidate_key,
    machine_spec_hash,
    stats_delta,
    trace_signature,
)
from repro.eval.keys import kernel_fingerprint, machine_fingerprint, variant_fingerprint
from repro.frontend import parse_kernel
from repro.kernels import KERNELS, matmul
from repro.machines import MACHINES, get_machine

SGI = get_machine("sgi")
SUN = get_machine("sun")
SRC_DIR = str(Path(repro.__file__).parents[1])


@pytest.fixture(scope="module")
def mm_variants():
    return derive_variants(matmul(), SGI)


def _initial_values(variant):
    return GuidedSearch(matmul(), SGI, {"N": 16}).initial_values(variant)


class TestCandidateKey:
    def test_deterministic_within_process(self, mm_variants):
        k = matmul()
        v = mm_variants[0]
        values = _initial_values(v)
        a = candidate_key(k, v, values, None, None, {"N": 16}, SGI)
        b = candidate_key(matmul(), v, dict(values), {}, {}, {"N": 16}, SGI)
        assert a == b
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)

    def test_sensitive_to_every_component(self, mm_variants):
        k = matmul()
        v = mm_variants[0]
        values = _initial_values(v)
        base = candidate_key(k, v, values, None, None, {"N": 16}, SGI)
        bumped = dict(values)
        first = sorted(bumped)[0]
        bumped[first] += 1
        site = PrefetchSite("A", v.register_loop)
        assert candidate_key(k, v, bumped, None, None, {"N": 16}, SGI) != base
        assert candidate_key(k, v, values, {site: 2}, None, {"N": 16}, SGI) != base
        assert candidate_key(k, v, values, None, {"A": 4}, {"N": 16}, SGI) != base
        assert candidate_key(k, v, values, None, None, {"N": 24}, SGI) != base
        assert candidate_key(k, v, values, None, None, {"N": 16}, SUN) != base
        if len(mm_variants) > 1:
            other = mm_variants[1]
            assert (
                candidate_key(k, other, _initial_values(other), None, None, {"N": 16}, SGI)
                != base
            )

    def test_zero_distance_prefetch_and_zero_pads_normalized(self, mm_variants):
        """Empty/zero prefetch and pad entries hash like their absence."""
        k = matmul()
        v = mm_variants[0]
        values = _initial_values(v)
        base = candidate_key(k, v, values, None, None, {"N": 16}, SGI)
        assert candidate_key(k, v, values, {}, {"A": 0}, {"N": 16}, SGI) == base

    def test_stable_across_processes(self, mm_variants):
        """The on-disk cache contract: a fresh interpreter computes the
        same key for the same candidate."""
        k = matmul()
        v = mm_variants[0]
        values = _initial_values(v)
        local = candidate_key(k, v, values, None, None, {"N": 16}, SGI)
        snippet = (
            "from repro.kernels import matmul\n"
            "from repro.machines import get_machine\n"
            "from repro.core import derive_variants, GuidedSearch\n"
            "from repro.eval import candidate_key\n"
            "m = get_machine('sgi')\n"
            "k = matmul()\n"
            "v = derive_variants(k, m)[0]\n"
            "values = GuidedSearch(k, m, {'N': 16}).initial_values(v)\n"
            "print(candidate_key(k, v, values, None, None, {'N': 16}, m))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"  # keys must not depend on str hashing
        remote = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert remote == local


def _uncached_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _dsl_kernel():
    return parse_kernel(
        """
kernel saxpy2(N):
    array X[N, N], Y[N, N]
    do J = 1, N:
        do I = 1, N:
            Y[I, J] = Y[I, J] + 2.5 * X[I, J]
"""
    )


class TestCachedFingerprints:
    """Keys splice each object's memoized canonical JSON into the payload;
    they must stay byte-identical to dumping the whole payload at once."""

    @pytest.mark.parametrize("kname", sorted(KERNELS) + ["dsl"])
    def test_keys_match_the_uncached_computation(self, kname):
        kernel = _dsl_kernel() if kname == "dsl" else KERNELS[kname]()
        problem = {p: 16 for p in kernel.params}
        for mname in sorted(MACHINES):
            machine = get_machine(mname)
            assert machine_spec_hash(machine) == _uncached_digest(
                machine_fingerprint(machine)
            )[:16]
            for variant in derive_variants(kernel, machine)[:3]:
                values = {p: 2 + i for i, p in enumerate(variant.param_names)}
                site = PrefetchSite(kernel.arrays[0].name, variant.register_loop)
                common = {
                    "kernel": kernel_fingerprint(kernel),
                    "variant": variant_fingerprint(variant),
                    "values": sorted(values.items()),
                    "problem": sorted(problem.items()),
                    "machine": machine_fingerprint(machine),
                }
                # twice: the first call renders the JSON, the second reuses it
                for _ in range(2):
                    assert trace_signature(
                        kernel, variant, values, problem, machine
                    ) == _uncached_digest(common)
                    key = candidate_key(
                        kernel, variant, values, {site: 3}, {"A": 2}, problem, machine
                    )
                    assert key == _uncached_digest(
                        dict(
                            common,
                            prefetch=[[site.array, site.loop, 3]],
                            pads=[["A", 2]],
                        )
                    )

    def test_threads_keying_at_once_get_the_uncached_keys(self, monkeypatch):
        """Four threads make keys for more kernels than a shrunken memo
        holds, so they evict each other's entries."""
        from repro.eval import keys

        machine = get_machine("sgi")
        cases = []
        for kernel in [_dsl_kernel() for _ in range(4)] + [matmul(), KERNELS["jacobi"]()]:
            variant = derive_variants(kernel, machine)[0]
            values = {p: 4 for p in variant.param_names}
            problem = {p: 16 for p in kernel.params}
            cases.append((kernel, variant, values, problem, machine))
        want = [
            _uncached_digest({
                "kernel": kernel_fingerprint(kernel),
                "variant": variant_fingerprint(variant),
                "values": sorted(values.items()),
                "problem": sorted(problem.items()),
                "machine": machine_fingerprint(machine),
            })
            for kernel, variant, values, problem, machine in cases
        ]
        monkeypatch.setattr(keys, "_CANONICAL_CAP", 3)
        got, errors = [None] * 4, []

        def work(worker):
            try:
                got[worker] = [
                    [trace_signature(*case) for case in cases] for _ in range(20)
                ]
            except Exception as exc:  # reported below: a thread cannot fail the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == [[want] * 20] * 4
        assert len(keys._CANONICAL) <= 3

    def test_memo_is_bounded_and_keyed_by_identity(self):
        from repro.eval import keys

        kernels = [_dsl_kernel() for _ in range(keys._CANONICAL_CAP + 5)]
        for kernel in kernels:
            keys._canonical(kernel, kernel_fingerprint)
            assert len(keys._CANONICAL) <= keys._CANONICAL_CAP
        for kernel in kernels[-3:]:
            assert keys._CANONICAL[id(kernel)][0] is kernel


class TestResultCache:
    def test_memory_roundtrip(self):
        cache = ResultCache()
        cache.put("k1", CachedResult(123.0, None))
        assert cache.get_memory("k1").cycles == 123.0
        assert cache.get_disk("k1") is None  # no disk layer configured

    def test_disk_roundtrip_with_counters(self, tmp_path, mm_variants):
        engine = EvalEngine(SGI, cache=ResultCache(tmp_path))
        v = mm_variants[0]
        out = engine.evaluate(matmul(), v, _initial_values(v), {"N": 16})
        fresh = ResultCache(tmp_path)
        stored = fresh.get_disk(out.key)
        assert stored is not None
        assert stored.cycles == out.cycles
        assert stored.counters is not None
        assert stored.counters.loads == out.counters.loads
        assert stored.counters.cache_misses == out.counters.cache_misses
        assert stored.counters.seconds == out.counters.seconds

    def test_infeasible_result_roundtrips_as_inf(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("deadbeef", CachedResult(math.inf, None))
        fresh = ResultCache(tmp_path)
        stored = fresh.get_disk("deadbeef")
        assert math.isinf(stored.cycles) and stored.counters is None

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json at all {",
            '{"version": 99, "key": "KEY", "cycles": 1.0, "counters": null}',
            '{"version": 1, "key": "other", "cycles": 1.0, "counters": null}',
            '{"version": 1, "key": "KEY", "cycles": 1.0, "counters": {"bogus": 1}}',
            '"just a string"',
        ],
    )
    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        cache.put("KEY", CachedResult(42.0, None))
        file = tmp_path / "KE" / "KEY.json"
        assert file.exists()
        file.write_text(garbage)
        fresh = ResultCache(tmp_path)
        assert fresh.get_disk("KEY") is None
        assert fresh.corrupt_entries == 1
        assert not file.exists()  # removed so a later put() repairs it

    def test_corrupted_entry_resimulated_through_engine(self, tmp_path, mm_variants):
        v = mm_variants[0]
        values = _initial_values(v)
        first = EvalEngine(SGI, cache=ResultCache(tmp_path))
        out = first.evaluate(matmul(), v, values, {"N": 16})
        file = tmp_path / out.key[:2] / f"{out.key}.json"
        file.write_text("{corrupted")
        second = EvalEngine(SGI, cache=ResultCache(tmp_path))
        again = second.evaluate(matmul(), v, values, {"N": 16})
        assert again.source == "sim"  # graceful: re-ran instead of crashing
        assert again.cycles == out.cycles
        # and the entry was repaired on disk
        assert json.loads(file.read_text())["body"]["key"] == out.key


class TestEngineAccounting:
    def test_hit_miss_accounting(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        values = _initial_values(v)
        first = engine.evaluate(matmul(), v, values, {"N": 16})
        assert first.source == "sim" and not first.cached
        second = engine.evaluate(matmul(), v, values, {"N": 16})
        assert second.source == "memory" and second.cached
        assert second.cycles == first.cycles
        assert engine.stats.simulations == 1
        assert engine.stats.memory_hits == 1
        assert engine.stats.disk_hits == 0
        assert engine.stats.evaluations == 2

    def test_disk_hits_counted_separately(self, tmp_path, mm_variants):
        v = mm_variants[0]
        values = _initial_values(v)
        EvalEngine(SGI, cache=ResultCache(tmp_path)).evaluate(
            matmul(), v, values, {"N": 16}
        )
        warm = EvalEngine(SGI, cache=ResultCache(tmp_path))
        out = warm.evaluate(matmul(), v, values, {"N": 16})
        assert out.source == "disk"
        assert warm.stats.disk_hits == 1 and warm.stats.simulations == 0

    def test_failed_build_counts_as_failure_and_caches(self, mm_variants):
        engine = EvalEngine(SGI)
        v = next(variant for variant in mm_variants if variant.copies)
        # Tile sizes of 0 make the copy transform fail (TransformError),
        # which the engine records as a failed simulation, cached like any
        # other result.
        values = {p: 0 for p in v.param_names}
        out = engine.evaluate(matmul(), v, values, {"N": 16})
        assert math.isinf(out.cycles) and out.counters is None
        assert engine.stats.failures == 1
        again = engine.evaluate(matmul(), v, values, {"N": 16})
        assert again.cached and math.isinf(again.cycles)

    def test_duplicate_requests_in_batch_simulated_once(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        req = EvalRequest.build(matmul(), v, _initial_values(v), {"N": 16})
        outcomes = engine.evaluate_batch([req, req, req])
        assert engine.stats.simulations == 1
        assert len({o.cycles for o in outcomes}) == 1

    def test_stage_attribution(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        values = _initial_values(v)
        with engine.stage("alpha"):
            engine.evaluate(matmul(), v, values, {"N": 16})
        with engine.stage("beta"):
            engine.evaluate(matmul(), v, values, {"N": 16})
        assert engine.stats.stages["alpha"].simulations == 1
        assert engine.stats.stages["beta"].cache_hits == 1
        assert engine.stats.stages["alpha"].wall_seconds > 0


class TestStatsDelta:
    """Regression tests: stats_delta must diff over the union of keys."""

    BASE = {
        "memory_hits": 0, "disk_hits": 0, "cache_hits": 0, "simulations": 5,
        "failures": 0, "batches": 1, "wall_seconds": 1.0,
        "stages": {"screen": {"wall_seconds": 1.0, "simulations": 5, "cache_hits": 0}},
    }

    def test_stage_only_in_after_is_kept(self):
        """A stage first entered between the snapshots must survive the
        delta (the shared-engine case: search 2 enters 'tiling' which
        search 1 never did)."""
        after = dict(self.BASE)
        after["simulations"] = 8
        after["stages"] = {
            **self.BASE["stages"],
            "tiling": {"wall_seconds": 0.5, "simulations": 3, "cache_hits": 0},
        }
        delta = stats_delta(self.BASE, after)
        assert delta["simulations"] == 3
        assert delta["stages"] == {
            "tiling": {"wall_seconds": 0.5, "simulations": 3, "cache_hits": 0}
        }

    def test_key_only_in_after_stage_is_kept(self):
        """A counter added to StageStats after `before` was snapshotted
        deltas against zero instead of being lost."""
        after = dict(self.BASE)
        after["stages"] = {
            "screen": {"wall_seconds": 1.5, "simulations": 5, "cache_hits": 0,
                       "retries": 2},
        }
        delta = stats_delta(self.BASE, after)
        assert delta["stages"]["screen"]["retries"] == 2

    def test_key_only_in_before_stage_is_kept(self):
        before = dict(self.BASE)
        before["stages"] = {
            "screen": {"wall_seconds": 1.0, "simulations": 5, "cache_hits": 0,
                       "legacy": 4},
        }
        after = dict(self.BASE)
        after["stages"] = {
            "screen": {"wall_seconds": 2.0, "simulations": 7, "cache_hits": 0},
        }
        delta = stats_delta(before, after)
        assert delta["stages"]["screen"]["legacy"] == -4
        assert delta["stages"]["screen"]["simulations"] == 2

    def test_top_level_key_only_in_after(self):
        """New EvalStats counters tolerate old `before` snapshots."""
        after = {**self.BASE, "new_counter": 9}
        delta = stats_delta(self.BASE, after)
        assert delta["new_counter"] == 9

    def test_unchanged_stage_dropped_changed_kept(self):
        after = dict(self.BASE)
        after["simulations"] = 6
        after["stages"] = {
            "screen": dict(self.BASE["stages"]["screen"]),  # unchanged
            "tiling": {"wall_seconds": 0.1, "simulations": 1, "cache_hits": 0},
        }
        delta = stats_delta(self.BASE, after)
        assert "screen" not in delta["stages"]
        assert "tiling" in delta["stages"]

    def test_stage_order_is_first_seen(self):
        """The delta preserves the order stages were entered in, so the
        --stats JSON dump diffs reproducibly."""
        after = dict(self.BASE)
        after["stages"] = {
            "screen": {"wall_seconds": 2.0, "simulations": 9, "cache_hits": 0},
            "tiling": {"wall_seconds": 1.0, "simulations": 4, "cache_hits": 0},
            "prefetch": {"wall_seconds": 0.5, "simulations": 2, "cache_hits": 0},
        }
        delta = stats_delta(self.BASE, after)
        assert list(delta["stages"]) == ["screen", "tiling", "prefetch"]
        assert list(delta) == [
            "memory_hits", "disk_hits", "cache_hits", "simulations",
            "failures", "batches", "wall_seconds", "stages",
        ]


class TestParallelEquivalence:
    def test_parallel_matches_serial_in_order(self, mm_variants):
        requests = [
            EvalRequest.build(matmul(), v, _initial_values(v), {"N": 16})
            for v in mm_variants[:6]
        ]
        serial = [o.cycles for o in EvalEngine(SGI, jobs=1).evaluate_batch(requests)]
        with EvalEngine(SGI, jobs=4) as parallel_engine:
            parallel = [o.cycles for o in parallel_engine.evaluate_batch(requests)]
        assert parallel == serial
        assert parallel_engine.stats.simulations == len(requests)

    def test_parallel_search_identical_to_serial(self):
        """-j N must not change what the search finds, visits or records."""
        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=1)
        serial = GuidedSearch(kernel, SGI, {"N": 16}, config).run(variants)
        with EvalEngine(SGI, jobs=4) as engine:
            parallel = GuidedSearch(
                kernel, SGI, {"N": 16}, config, engine=engine
            ).run(variants)
        assert parallel.variant.name == serial.variant.name
        assert parallel.values == serial.values
        assert parallel.prefetch == serial.prefetch
        assert parallel.cycles == serial.cycles
        assert parallel.points == serial.points
        assert parallel.history == serial.history


class TestWarmCacheSearch:
    def test_rerun_with_warm_cache_simulates_nothing(self, tmp_path):
        """Acceptance criterion: an mm search against a warm on-disk cache
        performs zero simulator invocations and finds the identical result."""
        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=1)

        cold_engine = EvalEngine(SGI, cache=ResultCache(tmp_path))
        cold = GuidedSearch(kernel, SGI, {"N": 16}, config, engine=cold_engine).run(
            variants
        )
        assert cold_engine.stats.simulations > 0
        assert cold.stats["simulations"] == cold_engine.stats.simulations

        warm_engine = EvalEngine(SGI, cache=ResultCache(tmp_path))
        warm = GuidedSearch(kernel, SGI, {"N": 16}, config, engine=warm_engine).run(
            variants
        )
        assert warm_engine.stats.simulations == 0
        assert warm_engine.stats.disk_hits == cold_engine.stats.simulations
        assert warm.stats["simulations"] == 0
        # identical outcome, including the paper's search-cost accounting
        assert warm.variant.name == cold.variant.name
        assert warm.values == cold.values
        assert warm.prefetch == cold.prefetch
        assert warm.cycles == cold.cycles
        assert warm.points == cold.points
        assert warm.machine_seconds == cold.machine_seconds
        assert warm.history == cold.history
