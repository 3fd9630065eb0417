"""Learned ranking surrogate (repro.analysis.learned) — ISSUE 9.

The contracts under test:

* **seeded training determinism** — the same corpus rows and seed
  produce a byte-identical model artifact (body and fingerprint);
* **sealed artifact** — the model round-trips through the storage
  integrity layer; corrupt or missing artifacts refuse to load;
* **exact memo** — a binding the model has measured (training or
  in-search observation) predicts at its measured ``log(cycles)``;
* **pruning floor** — on the golden mm search, on every machine model,
  a ranker trained on that machine's own base trace avoids >= 40% of
  the simulations with the tuned winner unchanged;
* **determinism across job counts** — with the ranker on, winners, skip
  counts and canonical traces are byte-identical at ``-j1`` and ``-j4``,
  with and without speculation;
* **fail open** — a mismatched model warns and simulates everything.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.analysis.learned import (
    MODEL_VERSION,
    LearnedRanker,
    TrainingError,
    evaluate_ranker,
    load_ranker,
    save_ranker,
    train_ranker,
)
from repro.core import EcoOptimizer, GuidedSearch, SearchConfig
from repro.eval import EvalEngine, machine_spec_hash
from repro.kernels import matmul
from repro.machines import MACHINES, get_machine
from repro.obs import Tracer, canonical
from repro.obs.corpus import flatten_trace
from repro.storage import StorageError

SGI = get_machine("sgi")


def _golden_search(jobs=1, ranker=None, prescreen=False, machine=SGI):
    """The golden mm search with an in-memory trace; returns
    (result, stats, tracer)."""
    tracer = Tracer(kernel="mm", machine=machine.name, size=24)
    with EvalEngine(machine, jobs=jobs, tracer=tracer) as engine:
        config = SearchConfig(
            full_search_variants=2, prescreen=prescreen, ranker=ranker
        )
        result = EcoOptimizer(
            matmul(), machine, config, engine=engine
        ).optimize({"N": 24}).result
        stats = engine.stats
    return result, stats, tracer


@pytest.fixture(scope="module")
def base_run():
    return _golden_search()


@pytest.fixture(scope="module")
def rows(base_run):
    _, _, tracer = base_run
    return flatten_trace(tracer.events())


@pytest.fixture(scope="module")
def ranker(rows):
    return train_ranker(rows, "mm", "sgi", seed=0)


class TestTrainingDeterminism:
    def test_same_rows_and_seed_are_byte_identical(self, rows):
        a = train_ranker(rows, "mm", "sgi", seed=0)
        b = train_ranker(rows, "mm", "sgi", seed=0)
        assert json.dumps(a.body(), sort_keys=True) == json.dumps(
            b.body(), sort_keys=True
        )
        assert a.fingerprint == b.fingerprint

    def test_seed_is_part_of_the_fingerprint(self, rows, ranker):
        other = train_ranker(rows, "mm", "sgi", seed=1)
        assert other.fingerprint != ranker.fingerprint

    def test_too_few_rows_refuse(self, rows):
        with pytest.raises(TrainingError, match="usable training rows"):
            train_ranker(rows[:3], "mm", "sgi", seed=0)

    def test_foreign_machine_spec_rows_are_excluded(self, rows):
        forged = [dict(row, machine_spec="0" * 16) for row in rows]
        with pytest.raises(TrainingError):
            train_ranker(forged, "mm", "sgi", seed=0)

    def test_rows_carry_the_machine_spec_column(self, rows):
        spec = machine_spec_hash(SGI)
        assert rows and all(row["machine_spec"] == spec for row in rows)

    def test_training_metrics_recorded(self, ranker):
        assert ranker.training["rmse_log_cycles"] < 0.2
        assert ranker.training["spearman"] > 0.9


class TestArtifact:
    def test_round_trip_is_identical(self, ranker, tmp_path):
        path = str(tmp_path / "model.json")
        save_ranker(path, ranker)
        loaded = load_ranker(path)
        assert loaded.fingerprint == ranker.fingerprint
        assert loaded.body() == ranker.body()

    def test_corrupt_artifact_refuses(self, ranker, tmp_path):
        path = str(tmp_path / "model.json")
        save_ranker(path, ranker)
        raw = open(path).read()
        with open(path, "w") as handle:
            handle.write(raw.replace('"rows"', '"swor"', 1))
        with pytest.raises(StorageError):
            load_ranker(path)

    def test_missing_artifact_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_ranker(str(tmp_path / "nope.json"))

    def test_unknown_version_refuses(self, ranker):
        body = ranker.body()
        body["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            LearnedRanker(body)


class TestPredictions:
    def test_trained_points_predict_their_measured_value(self, rows, ranker):
        kernel = matmul()
        from repro.core import derive_variants

        variants = {v.name: v for v in derive_variants(kernel, SGI)}
        checked = 0
        for row in rows:
            if row.get("prefetch") or row.get("pads"):
                continue
            if row.get("cycles") is None or row["variant"] not in variants:
                continue
            variant = variants[row["variant"]]
            values = {k: int(v) for k, v in row["values"].items()}
            problem = {k: int(v) for k, v in row["problem"].items()}
            memo = ranker.memoized(variant, values, problem)
            assert memo == pytest.approx(math.log(row["cycles"]))
            assert ranker.predict(
                kernel, variant, values, problem, SGI
            ) == pytest.approx(memo)
            checked += 1
        assert checked >= 8

    def test_observation_joins_the_memo(self, ranker):
        from repro.core import derive_variants

        clone = ranker.clone()
        kernel = matmul()
        variant = derive_variants(kernel, SGI)[0]
        values = {p: 2 for p in variant.param_names}
        problem = {"N": 24}
        assert clone.memoized(variant, values, problem) is None
        clone.observe(kernel, variant, values, problem, SGI, 12345.0)
        assert clone.memoized(variant, values, problem) == pytest.approx(
            math.log(12345.0)
        )
        # the artifact instance itself is untouched
        assert ranker.memoized(variant, values, problem) is None

    def test_mismatch_names_the_reason(self, ranker):
        assert ranker.mismatch("mm", SGI) is None
        assert "kernel" in ranker.mismatch("jacobi", SGI)
        sun = get_machine("sun")
        assert "machine" in ranker.mismatch("mm", sun)

    def test_evaluate_scores_trained_rows_exactly(self, rows, ranker):
        metrics = evaluate_ranker(ranker, rows)
        assert metrics["scored"] >= 8
        assert metrics["spearman"] == pytest.approx(1.0)
        assert metrics["mae_log_cycles"] == pytest.approx(0.0, abs=1e-12)


class TestRankedSearch:
    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_ranker_meets_the_pruning_floor(self, machine_name):
        machine = get_machine(machine_name)
        base_result, base_stats, tracer = _golden_search(machine=machine)
        own = train_ranker(
            flatten_trace(tracer.events()), "mm", machine_name, seed=0
        )
        result, stats, _ = _golden_search(ranker=own, machine=machine)
        avoided = 1.0 - stats.simulations / base_stats.simulations
        assert avoided >= 0.40
        assert stats.ranker_skips > 0
        assert result.variant.name == base_result.variant.name
        assert result.values == base_result.values
        assert result.prefetch == base_result.prefetch
        assert result.pads == base_result.pads
        assert result.cycles == base_result.cycles

    def test_byte_identical_across_jobs_and_venues(self, ranker, host_cpus):
        runs = [
            _golden_search(jobs=1, ranker=ranker),
            _golden_search(jobs=4, ranker=ranker),
        ]
        results = [run[0] for run in runs]
        stats = [run[1] for run in runs]
        traces = [canonical(run[2].events()) for run in runs]
        assert all(r.values == results[0].values for r in results)
        assert all(r.cycles == results[0].cycles for r in results)
        assert all(s.simulations == stats[0].simulations for s in stats)
        assert all(s.ranker_skips == stats[0].ranker_skips for s in stats)
        assert traces[1] == traces[0]

    def test_mismatched_model_fails_open(self, base_run, rows, ranker):
        base_result, base_stats, _ = base_run
        foreign = ranker.clone()
        foreign.machine_name = "somewhere-else"
        with pytest.warns(RuntimeWarning, match="learned ranker disabled"):
            result, stats, _ = _golden_search(ranker=foreign)
        assert stats.simulations == base_stats.simulations
        assert stats.ranker_skips == 0
        assert result.values == base_result.values

    def test_no_model_means_no_skips(self, base_run):
        _, base_stats, _ = base_run
        assert base_stats.ranker_skips == 0

    def test_exploration_rng_follows_the_artifact_seed(self, rows, ranker):
        for model in (ranker, train_ranker(rows, "mm", "sgi", seed=7)):
            search = GuidedSearch(
                matmul(), SGI, {"N": 24}, SearchConfig(ranker=model)
            )
            expected = random.Random(model.seed)
            assert search._ranker_rng.getstate() == expected.getstate()
