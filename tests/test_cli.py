"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.learned import MODEL_RECORD_KIND, load_ranker
from repro.core import EcoOptimizer, SearchConfig
from repro.eval import EvalEngine
from repro.kernels import matmul
from repro.machines import get_machine
from repro.obs import Tracer
from repro.obs.corpus import flatten_trace
from repro.storage import open_record


class TestCli:
    def test_machines(self, capsys):
        main(["machines"])
        out = capsys.readouterr().out
        assert "sgi-r10k" in out and "ultrasparc-iie-mini" in out

    def test_run(self, capsys):
        main(["run", "mm", "--size", "12"])
        out = capsys.readouterr().out
        assert "mflops" in out and "l1_misses" in out

    def test_variants(self, capsys):
        main(["variants", "mm", "--machine", "sgi-full"])
        out = capsys.readouterr().out
        assert "UI*UJ <= 32" in out
        assert "copy" in out

    def test_tune_and_emit(self, capsys, tmp_path):
        path = tmp_path / "out.c"
        main(["tune", "matvec", "--size", "32", "--emit", str(path)])
        out = capsys.readouterr().out
        assert "ECO tuned matvec" in out
        assert path.exists() and "kernel_matvec" in path.read_text()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["bench", "serve"],
        ["bench", "trend"],
        ["bench", "search", "--legs", "learned"],
        ["bench", "sim"],
        ["bench", "--floor", "x.json"],
    ], ids=["serve", "trend", "legs", "sim", "floor"])
    def test_bench_keeps_only_search(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err


class TestCliTrace:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "matvec.trace.jsonl"
        main(["tune", "matvec", "--size", "24", "--trace", str(path)])
        return path

    def test_tune_trace_writes_valid_jsonl(self, trace_path, capsys):
        from repro.obs import read_trace

        load = read_trace(trace_path, validate=True)
        assert load.skipped_lines == 0
        events = load.events
        assert events, "trace must be non-empty"
        assert events[0]["type"] == "meta"
        assert events[0]["attrs"]["kernel"] == "matvec"
        assert any(e["type"] == "event" and e["name"] == "eval" for e in events)
        assert any(e["type"] == "metric" for e in events)

    def test_stats_json_line_is_stable(self, capsys, tmp_path):
        def stats_line():
            main(["tune", "matvec", "--size", "24", "--stats"])
            out = capsys.readouterr().out
            [line] = [l for l in out.splitlines() if l.startswith("stats json: ")]
            return line[len("stats json: "):]

        first, second = stats_line(), stats_line()
        assert first == second  # byte-identical across runs (no wall times)
        parsed = json.loads(first)
        assert "wall_seconds" not in json.dumps(parsed)
        assert list(parsed["stages"])[0] == "screen"  # first-seen order

    def test_trace_summary(self, trace_path, capsys):
        main(["trace", "summary", str(trace_path)])
        out = capsys.readouterr().out
        assert "evaluations:" in out and "screen" in out

    def test_trace_convergence(self, trace_path, capsys):
        main(["trace", "convergence", str(trace_path)])
        out = capsys.readouterr().out
        assert "improvements over" in out

    def test_trace_timeline(self, trace_path, capsys):
        main(["trace", "timeline", str(trace_path)])
        out = capsys.readouterr().out
        assert "optimizer:matvec" in out

    def test_trace_chrome_export(self, trace_path, capsys, tmp_path):
        out_path = tmp_path / "chrome.json"
        main(["trace", "chrome", str(trace_path), "-o", str(out_path)])
        chrome = json.loads(out_path.read_text())
        assert chrome["traceEvents"]
        assert {"name", "ph", "ts", "pid", "tid"} <= set(chrome["traceEvents"][0])


#: ``repro trace summary`` of the checked-in reference trace, whose
#: timings are fixed in the file: the header, one attribution block for
#: its search, and the self-time report
REFERENCE_SUMMARY = """\
trace: command=tune, jobs=1, kernel=mm, machine=sgi, size=24
evaluations: 73 (73 simulated, 0 cached, 0 infeasible)
simulated machine time: 19.128 ms
best: 30,774.4 cycles at evaluation 49 (v9 {'TI': 8, 'TK': 12, 'UI': 8, 'UJ': 2})

search profile — mm @ sgi-r10k-mini (N=24)
  search wall: 8.618 s

  stage            spans evals  sims  hits    wall s   share    eval s   other s  machine ms
  screen               1    12    12     0     1.840   21.3%         -         -       3.646
  tiling               3    41    41     0     4.783   55.5%         -         -      11.577
  prefetch             3    20    20     0     1.994   23.1%         -         -       3.905
  padding              3     0     0     0     0.000    0.0%         -         -       0.000
  (unattributed)                               0.001    0.0%
  rows sum to 8.618 s of 8.618 s search wall (100.0%)
  (trace predates schema 1.1: no per-eval wall attrs; eval/other columns unavailable)

self time (span duration minus children, whole trace):
  stage:tiling                4.783 s   55.5% |#################.............|  3 span(s)
  stage:prefetch              1.994 s   23.1% |#######.......................|  3 span(s)
  stage:screen                1.840 s   21.3% |######........................|  1 span(s)
  variant (between stages)    0.001 s    0.0% |..............................|  3 span(s)
  search                      0.000 s    0.0% |..............................|  1 span(s)
  optimizer                   0.000 s    0.0% |..............................|  1 span(s)
  stage:padding               0.000 s    0.0% |..............................|  3 span(s)
"""


class TestCliObservatory:
    """The trace-toolchain verbs: corpus / trace summary."""

    REFERENCE = "results/traces/mm_sgi_r10k.trace.jsonl"

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "matvec.trace.jsonl"
        main(["tune", "matvec", "--size", "24", "--trace", str(path)])
        return path

    def test_corpus_ingest_list_stats_export(self, trace_path, capsys,
                                             tmp_path):
        root = str(tmp_path / "corpus")
        main(["corpus", "ingest", str(trace_path), "--root", root])
        out = capsys.readouterr().out
        assert "ingested" in out
        # content-addressed: re-ingesting the same trace is a no-op
        main(["corpus", "ingest", str(trace_path), "--root", root])
        assert "already present" in capsys.readouterr().out
        main(["corpus", "list", "--root", root])
        assert "matvec" in capsys.readouterr().out
        main(["corpus", "stats", "--root", root])
        stats = json.loads(capsys.readouterr().out)
        assert stats["traces"] == 1 and stats["evals"] > 0
        csv_path = tmp_path / "corpus.csv"
        main(["corpus", "export", "--root", root, "--format", "csv",
              "-o", str(csv_path)])
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("trace,search,kernel,machine")

    def test_summary_on_reference_trace_is_pinned(self, capsys):
        main(["trace", "summary", self.REFERENCE])
        assert capsys.readouterr().out == REFERENCE_SUMMARY


class TestCliModel:
    """``repro model train|info|eval --traces`` on one traced golden
    mm@sgi N=24 search: ``eval`` is the model-accuracy report."""

    @pytest.fixture(scope="class")
    def golden_trace(self, tmp_path_factory):
        machine = get_machine("sgi")
        tracer = Tracer(kernel="mm", machine=machine.name, size=24)
        with EvalEngine(machine, tracer=tracer) as engine:
            EcoOptimizer(
                matmul(), machine, SearchConfig(full_search_variants=2),
                engine=engine,
            ).optimize({"N": 24})
        path = tmp_path_factory.mktemp("model") / "golden.trace.jsonl"
        tracer.dump(path)
        return path, tracer.events()

    @pytest.fixture(scope="class")
    def model_path(self, golden_trace, tmp_path_factory):
        trace, _ = golden_trace
        path = tmp_path_factory.mktemp("model") / "model.json"
        main(["model", "train", str(path), "--kernel", "mm",
              "--machine", "sgi", "--traces", str(trace)])
        return path

    def test_train_writes_a_sealed_artifact(self, model_path):
        body = open_record(model_path.read_text(), MODEL_RECORD_KIND)
        assert (body["kernel"], body["machine"]) == ("mm", "sgi-r10k-mini")

    def test_info_prints_the_fingerprint(self, model_path, capsys):
        main(["model", "info", str(model_path)])
        out = capsys.readouterr().out
        assert f"fingerprint {load_ranker(model_path).fingerprint}" in out

    def test_eval_scores_every_unique_tiling_point(self, golden_trace,
                                                  model_path, capsys):
        trace, events = golden_trace
        unique = {
            (row["variant"], tuple(sorted(row["values"].items())))
            for row in flatten_trace(events)
            if row["status"] == "ok" and row["cycles"] is not None
            and not row["prefetch"] and not row["pads"]
        }
        main(["model", "eval", str(model_path), "--traces", str(trace)])
        out = capsys.readouterr().out
        k = len(unique)
        assert k > 0
        assert f"scored {k} of {k} unique tiling points" in out
        assert "spearman 1.000" in out

    def test_eval_warns_about_a_torn_trace(self, golden_trace, model_path,
                                           capsys, tmp_path):
        trace, _ = golden_trace
        text = trace.read_text()
        torn = tmp_path / "torn.trace.jsonl"
        torn.write_text(text[: len(text) - 40])  # tear the final line
        main(["model", "eval", str(model_path), "--traces", str(torn)])
        err = capsys.readouterr().err
        assert f"warning: {torn}: skipped 1 unreadable line(s)" in err


class TestCliDoctor:
    """The ISSUE 8 verb: doctor scans (and repairs) the stores."""

    def _args(self, tmp_path, *extra):
        return [
            "doctor",
            "--cache", str(tmp_path / "cache"),
            "--corpus", str(tmp_path / "corpus"),
            *extra,
        ]

    def test_absent_stores_are_healthy(self, capsys, tmp_path):
        main(self._args(tmp_path))
        out = capsys.readouterr().out
        assert "storage integrity report" in out
        assert "status: healthy" in out

    def test_problems_exit_nonzero_and_repair_heals(self, capsys, tmp_path):
        from repro.eval import CachedResult, ResultCache

        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" * 32, CachedResult(1.0, None))
        file = next(iter((tmp_path / "cache").rglob("*.json")))
        file.write_text(file.read_text()[:20])

        with pytest.raises(SystemExit):
            main(self._args(tmp_path))
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "--repair" in out

        main(self._args(tmp_path, "--repair"))
        assert "quarantined" in capsys.readouterr().out
        main(self._args(tmp_path))  # the second pass is clean: exit 0
        assert "status: healthy" in capsys.readouterr().out

    def test_json_report(self, capsys, tmp_path):
        main(self._args(tmp_path, "--json"))
        report = json.loads(capsys.readouterr().out)
        assert report["healthy"] is True
        assert set(report["stores"]) == {"cache", "corpus"}

    def test_fs_fault_spec_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "mm", "--size", "12",
                  "--inject-fs-faults", "meteor=0.5"])
