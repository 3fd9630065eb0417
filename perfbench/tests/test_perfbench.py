"""The benchmark's own tests (run: python3 -m pytest perfbench/tests).

They drive ``run.py`` end to end at ``--scale tiny``: a few seconds per
workload, with the same children, checks and JSON result as a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace=0, seed=5, expected=None, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(cwd),
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc, result = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert "sum (self + other)" in proc.stdout
        assert result["metrics"]["trace.overhead_s"]["value"] > 0
    else:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_wrong_expected_winner_trips_the_check(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())
    key = "tune-default:tiny:matvec/sun/6"
    values = expected[key]["winner"]["values"]
    name = sorted(values)[0]
    values[name] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc, result = bench("tune-default", expected=path)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED: matvec/sun/6: winner values" in proc.stdout


@pytest.mark.parametrize("workload,counts", [
    ("tune-default", ("eval.simulations", "model.skips", "model.score.calls",
                      "build.calls", "sim.calls", "sim.accesses")),
    ("serve-mix", ("eval.simulations", "learned.skips", "learned.train.calls",
                   "serve.searches", "serve.store_hits", "serve.dedup_hits",
                   "serve.warm_starts")),
])
def test_traced_runs_repeat_their_counts(workload, counts):
    first = bench(workload, trace=1)[1]["metrics"]
    second = bench(workload, trace=1)[1]["metrics"]
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "serve-mix":
        assert first["serve.dedup_hits"]["value"] == 1
        assert first["serve.warm_starts"]["value"] == len(
            workloads.SERVE["tiny"]["near"])


def test_a_crashed_child_fails_its_operations(monkeypatch, capsys):
    good = {"workload": "tune-default",
            "op": {"kernel": "matvec", "machine": "sun", "size": 6}}
    bad = {"workload": "tune-default",
           "op": {"kernel": "no-such-kernel", "machine": "sun", "size": 6}}
    monkeypatch.setattr(run, "payloads", lambda *args: [bad, good])
    code = run.main(["--workload", "tune-default", "--seed", "1",
                     "--seconds", "1", "--scale", "tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result == {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}
    assert "FAILED: tune-default pass exited" in out


def test_probe_overlapped_by_another_thread_is_contaminated(monkeypatch):
    import threading
    import time

    def burn(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    # a thread still busy when the settle wait gives up
    monkeypatch.setattr(child, "SETTLE_MAX_S", 0.01)
    clock = child.Clock(0.0, False)
    burner = threading.Thread(target=burn, args=(1.0,))
    burner.start()
    clock.probe()
    burner.join()
    assert clock.probes == [None] and clock.probe_s == 0.0
    # a thread that goes idle is waited for, and the probe is clean
    monkeypatch.setattr(child, "SETTLE_MAX_S", 5.0)
    burner = threading.Thread(target=burn, args=(0.3,))
    burner.start()
    clock.probe()
    burner.join()
    assert clock.probes[1] is not None and 0 < clock.probe_s < 0.3


def test_contaminated_probe_rescales_nothing():
    reference = run.REFERENCE_PROBE_S
    report = {"probes": [reference / 2, None, None], "wall_s": 3.0,
              "segments": [{"label": "search", "raw": 1.0},
                           {"label": "search", "raw": 1.0}]}
    wall, segments = run.normalized(report)
    assert [s["norm"] for s in segments] == [2.0, 1.0]
    assert wall == pytest.approx(2.0 + 1.0 + 1.0 * 2)


def test_steadiness_check_is_two_sided(capsys):
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    first = [10.0 + 0.01 * i for i in range(10)]
    faster = [0.6 * v for v in first]
    assert steady.report(spec, [{"wall_s": first}, {"wall_s": first}]) == []
    failures = steady.report(spec, [{"wall_s": first}, {"wall_s": faster}])
    assert failures and "median drift -0.400" in failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc, result = bench("tune-default", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result is None


def test_layer_table_self_times_sum_to_wall():
    # two threads: a client span (1) waiting on a daemon-side span (2)
    # that outlives it, plus a nested child (3) of the daemon span
    table_spans = [
        (1, None, "serve.submit", 1.0, 4.0),
        (2, 1, "search", 2.0, 5.0),
        (3, 2, "sim", 2.5, 3.0),
        (4, None, "serve.submit", 6.0, 7.0),
    ]
    table = spans.layer_table(table_spans, 0.0, 8.0)
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(8.0)
    assert table["sim"]["self_s"] == pytest.approx(0.5)
    assert table["search"]["self_s"] == pytest.approx(2.5)
    assert table["serve.submit"]["self_s"] == pytest.approx(2.0)
    assert table["other"]["self_s"] == pytest.approx(3.0)


def test_streams_are_seeded():
    for seed in (1, 2):
        assert workloads.serve_stream(seed) == workloads.serve_stream(seed)
        assert workloads.sweep_plan(seed) == workloads.sweep_plan(seed)
        assert workloads.tune_stream(seed) == workloads.tune_stream(seed)
    assert workloads.serve_stream(1) != workloads.serve_stream(2)
