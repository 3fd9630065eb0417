"""Delta evaluation: trace signatures + full/delta accounting.

Candidates that differ only in prefetch distances or array padding share
a "trace signature" (:func:`repro.eval.keys.trace_signature`) — the hash
of everything the transform *front end* (permute+tile → copy →
unroll-and-jam → scalar replacement) depends on.  The engine keys its
base-IR reuse on it: the first simulation of a signature is a **full**
build, later same-signature candidates are **delta** builds that re-run
only prefetch insertion + padding + the simulation itself.

Pinned properties:

* the signature is insensitive to prefetch/pads and sensitive to every
  front-end input (values, problem, variant, kernel, machine);
* ``stats.simulations == stats.full_sims + stats.delta_sims`` always,
  engine-wide and per stage, at any ``jobs`` and host CPU count;
* delta accounting fires only for signature repeats, and a warm cache
  yields zero simulations (the split doesn't move);
* an infeasible candidate does not mark its signature as seen (the next
  feasible sibling still counts as full);
* the model and the engine build through one base-IR LRU: a candidate
  the surrogate scores and the engine then simulates is transformed
  once, and the engine's full/delta split does not see the model's build.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

import repro.core.variants as variants_module
from repro.analysis.learned import _raw_features
from repro.analysis.surrogate import Surrogate
from repro.core import EcoOptimizer, GuidedSearch, SearchConfig, derive_variants
from repro.core.variants import PrefetchSite
from repro.eval import EvalEngine, EvalRequest, candidate_key, trace_signature
from repro.kernels import matmul
from repro.machines import get_machine
from tests.conftest import forced_cpu_count

SGI = get_machine("sgi")
SUN = get_machine("sun")
MINI = get_machine("sgi-r10k-mini")


@pytest.fixture(scope="module")
def mm_variants():
    return derive_variants(matmul(), SGI)


def _initial_values(variant):
    return GuidedSearch(matmul(), SGI, {"N": 16}).initial_values(variant)


class TestTraceSignature:
    def test_deterministic_and_hex(self, mm_variants):
        v = mm_variants[0]
        values = _initial_values(v)
        a = trace_signature(matmul(), v, values, {"N": 16}, SGI)
        b = trace_signature(matmul(), v, dict(values), {"N": 16}, SGI)
        assert a == b
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)

    def test_insensitive_to_prefetch_and_pads(self, mm_variants):
        """The licensing property: prefetch/pads are not inputs at all,
        while candidate_key (the result-cache key) does distinguish them
        — so equal signatures ⟺ a prefetch/pad-only delta."""
        k = matmul()
        v = mm_variants[0]
        values = _initial_values(v)
        site = PrefetchSite("A", v.register_loop)
        base_key = candidate_key(k, v, values, None, None, {"N": 16}, SGI)
        pf_key = candidate_key(k, v, values, {site: 4}, None, {"N": 16}, SGI)
        pad_key = candidate_key(k, v, values, None, {"A": 8}, {"N": 16}, SGI)
        assert len({base_key, pf_key, pad_key}) == 3
        # ... yet all three candidates share one trace signature
        sig = trace_signature(k, v, values, {"N": 16}, SGI)
        assert trace_signature(k, v, values, {"N": 16}, SGI) == sig

    def test_sensitive_to_every_front_end_input(self, mm_variants):
        k = matmul()
        v = mm_variants[0]
        values = _initial_values(v)
        base = trace_signature(k, v, values, {"N": 16}, SGI)
        bumped = dict(values)
        first = sorted(bumped)[0]
        bumped[first] += 1
        assert trace_signature(k, v, bumped, {"N": 16}, SGI) != base
        assert trace_signature(k, v, values, {"N": 24}, SGI) != base
        assert trace_signature(k, v, values, {"N": 16}, SUN) != base
        if len(mm_variants) > 1:
            other = mm_variants[1]
            assert (
                trace_signature(k, other, _initial_values(other), {"N": 16}, SGI)
                != base
            )

    def test_distinct_from_candidate_key(self, mm_variants):
        v = mm_variants[0]
        values = _initial_values(v)
        assert trace_signature(matmul(), v, values, {"N": 16}, SGI) != candidate_key(
            matmul(), v, values, None, None, {"N": 16}, SGI
        )


def _prefetch_ladder(variant, values, distances):
    site = PrefetchSite("A", variant.register_loop)
    return [
        EvalRequest.build(
            matmul(), variant, values, {"N": 16}, prefetch={site: d} if d else None
        )
        for d in distances
    ]


class TestDeltaAccounting:
    def test_prefetch_ladder_splits_full_plus_delta(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        values = _initial_values(v)
        requests = _prefetch_ladder(v, values, (0, 2, 4, 8))
        outcomes = engine.evaluate_batch(requests)
        assert all(o.status == "ok" for o in outcomes)
        assert engine.stats.simulations == 4
        assert engine.stats.full_sims == 1  # first build of the signature
        assert engine.stats.delta_sims == 3  # the rest shared its front end
        assert (
            engine.metrics.counter("eval.full_sims").value,
            engine.metrics.counter("eval.delta_sims").value,
        ) == (1, 3)
        engine.close()

    def test_distinct_values_are_all_full(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        values = _initial_values(v)
        bumped = dict(values)
        first = sorted(bumped)[0]
        bumped[first] += 1
        engine.evaluate_batch(
            [
                EvalRequest.build(matmul(), v, values, {"N": 16}),
                EvalRequest.build(matmul(), v, bumped, {"N": 16}),
            ]
        )
        assert engine.stats.full_sims == 2
        assert engine.stats.delta_sims == 0
        engine.close()

    def test_warm_cache_keeps_split_and_runs_zero_sims(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        requests = _prefetch_ladder(v, _initial_values(v), (0, 2, 4))
        engine.evaluate_batch(requests)
        before = (
            engine.stats.simulations,
            engine.stats.full_sims,
            engine.stats.delta_sims,
        )
        outcomes = engine.evaluate_batch(requests)
        assert all(o.source == "memory" for o in outcomes)
        after = (
            engine.stats.simulations,
            engine.stats.full_sims,
            engine.stats.delta_sims,
        )
        assert after == before  # zero new sims; the split does not move
        engine.close()

    def test_infeasible_does_not_claim_the_signature(self, mm_variants):
        """pads naming an unknown array make the build infeasible; the
        signature must stay unseen so the feasible sibling is full."""
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        values = _initial_values(v)
        bad = engine.evaluate(
            matmul(), v, values, {"N": 16}, pads={"NO_SUCH_ARRAY": 8}
        )
        assert bad.status == "infeasible"
        good = engine.evaluate(matmul(), v, values, {"N": 16})
        assert good.status == "ok"
        # the infeasible attempt counted as a (full) simulation but did
        # NOT claim the signature: the feasible sibling is full, not delta
        assert engine.stats.full_sims == 2
        assert engine.stats.delta_sims == 0
        # ... and only now is the signature held, by the feasible build
        site = PrefetchSite("A", v.register_loop)
        engine.evaluate(matmul(), v, values, {"N": 16}, prefetch={site: 2})
        assert engine.stats.delta_sims == 1
        engine.close()

    def test_per_stage_split_sums(self, mm_variants):
        engine = EvalEngine(SGI)
        v = mm_variants[0]
        values = _initial_values(v)
        with engine.stage("ladder"):
            engine.evaluate_batch(_prefetch_ladder(v, values, (0, 2, 4)))
        stage = engine.stats.stages["ladder"]
        assert stage.simulations == stage.full_sims + stage.delta_sims == 3
        assert (stage.full_sims, stage.delta_sims) == (1, 2)
        engine.close()


class TestSharedBaseBuild:
    def test_scored_then_simulated_candidate_is_built_once(
        self, mm_variants, monkeypatch
    ):
        calls = []
        original = variants_module.instantiate_base

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(variants_module, "instantiate_base", counting)
        monkeypatch.setattr(variants_module, "_BASE_IR_CACHE", OrderedDict())
        v = mm_variants[0]
        values = _initial_values(v)
        problem = {"N": 16}
        assert Surrogate(matmul(), SGI, problem).score(v, values) is not None
        assert len(calls) == 1
        # the learned ranker's features read the same build
        params = list(v.param_names)
        assert _raw_features(matmul(), v, values, problem, SGI, params) is not None
        engine = EvalEngine(SGI)
        outcome = engine.evaluate(matmul(), v, values, problem)
        assert outcome.status == "ok"
        assert len(calls) == 1
        # the model's build is not an engine consumption: still "full"
        assert (engine.stats.full_sims, engine.stats.delta_sims) == (1, 0)
        engine.close()


class TestSearchWideInvariant:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_search_sims_split_and_delta_fires(self, jobs, host_cpus):
        engine = EvalEngine(MINI, jobs=jobs)
        optimizer = EcoOptimizer(
            matmul(), MINI, SearchConfig(full_search_variants=2), engine=engine
        )
        optimizer.optimize({"N": 24})
        stats = engine.stats
        assert stats.simulations == stats.full_sims + stats.delta_sims
        # the guided search always walks a prefetch ladder on the winner,
        # so a real search must exercise the delta path
        assert stats.delta_sims > 0
        for stage in stats.stages.values():
            assert stage.simulations == stage.full_sims + stage.delta_sims
        as_dict = stats.as_dict()
        assert as_dict["full_sims"] == stats.full_sims
        assert as_dict["delta_sims"] == stats.delta_sims
        engine.close()

    def test_split_identical_across_worker_venues(self):
        splits = []
        for cpus, jobs in ((1, 1), (1, 4), (8, 4)):
            with forced_cpu_count(cpus):
                engine = EvalEngine(MINI, jobs=jobs)
                optimizer = EcoOptimizer(
                    matmul(), MINI, SearchConfig(full_search_variants=2),
                    engine=engine,
                )
                optimizer.optimize({"N": 24})
            splits.append(
                (
                    engine.stats.simulations,
                    engine.stats.full_sims,
                    engine.stats.delta_sims,
                )
            )
            engine.close()
        assert splits[0] == splits[1] == splits[2]
