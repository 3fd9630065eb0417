"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.__main__ import main


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
        from repro.obs import load_trace

        events = load_trace(trace_path, validate=True)
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


class TestCliObservatory:
    """The ISSUE 7 verbs: corpus / report accuracy / profile."""

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

    def test_report_accuracy_on_reference_trace(self, capsys):
        main(["report", "accuracy", self.REFERENCE])
        out = capsys.readouterr().out
        assert "model accuracy — mm @ sgi-r10k-mini" in out
        assert "worst misranking:" in out
        assert "<- default" in out

    def test_profile_on_reference_trace(self, capsys):
        main(["profile", self.REFERENCE])
        out = capsys.readouterr().out
        assert "search profile — mm @ sgi-r10k-mini" in out
        assert "self time" in out


class TestCliDoctor:
    """The ISSUE 8 verb: doctor scans (and repairs) the stores."""

    def _args(self, tmp_path, *extra):
        return [
            "doctor",
            "--cache", str(tmp_path / "cache"),
            "--corpus", str(tmp_path / "corpus"),
            "--checkpoints", str(tmp_path / "ck"),
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
        assert set(report["stores"]) == {"cache", "corpus", "checkpoints"}

    def test_fs_fault_spec_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "mm", "--size", "12",
                  "--inject-fs-faults", "meteor=0.5"])
