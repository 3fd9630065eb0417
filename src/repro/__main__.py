"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``machines`` — list the simulated machines;
* ``variants KERNEL [--machine M]`` — phase 1: print derived variants;
* ``tune KERNEL [--machine M] [--size N] [--emit FILE.c]`` — run both
  phases, report the tuned configuration and optionally emit C;
* ``run KERNEL [--machine M] [--size N]`` — execute the untransformed
  kernel and print its counters (a quick simulator probe);
* ``experiments [NAME ...]`` — regenerate the paper's tables/figures
  (default: all; names: table1 table4 fig4 fig5 searchcost motivation
  generality);
* ``trace summary|timeline|convergence|chrome TRACE.jsonl`` — analyze a
  search trace; ``summary`` is the search-cost report, attributing each
  search's wall time to its stages (see ``docs/observability.md``);
* ``corpus ingest|list|stats|export`` — accumulate traces into the
  content-addressed corpus under ``results/corpus/`` and export the
  flattened per-candidate table;
* ``model train|info|eval`` — the learned ranking surrogate: fit a
  seeded ridge ranker on the flattened corpus (or trace files), inspect
  a sealed model artifact, or score one against corpus rows or
  ``--traces`` files — rank correlation and log-cycle error over the
  unique measured pure-tiling points, the model-accuracy report (see
  ``docs/search.md``, "Learned ranking"; the paper's miss-model
  accuracy is ``repro.experiments.model_vs_empirical``);
* ``bench [--quick] [--check] [-o FILE]`` — time the search: ``-j 1``
  vs ``-j N`` wall clock and the plain/pruned walls of the model
  prescreen and the learned ranker (``BENCH_search.json``, floor
  ``benchmarks/perf/search_floor.json``; see ``docs/search.md``);
* ``doctor [--repair]`` — scan the persistent stores (result cache and
  trace corpus) for corrupt entries, orphaned temp
  files and stale locks; ``--repair`` quarantines bad entries, removes
  leftovers and rebuilds the corpus index from its trace blobs (see
  ``docs/robustness.md``, "Storage integrity");
* ``serve --socket PATH`` — tuning-as-a-service: a long-lived daemon
  that accepts tune requests over a Unix socket, coalesces duplicates,
  answers repeats from its sealed request store, shares one result
  cache and worker pool across requests, and warm-starts new sizes
  from the nearest completed request (see ``docs/serving.md``);
* ``submit KERNEL [--size N] [--machine M] [--wait]`` — send one tune
  request to a running daemon; prints the request key (or, with
  ``--wait``, the winner);
* ``status|result|watch KEY`` — poll, fetch, or live-stream one
  submitted request.

``tune`` prescreens tiling candidates with the analytical model by
default (simulations the model can rule out are skipped);
``--no-prescreen`` measures every candidate instead.  ``--ranker
MODEL.json`` additionally ranks every candidate batch with a trained
learned surrogate and simulates only the predicted-best plus seeded
exploration draws; a missing or mismatched artifact falls back to
simulating everything (fail open).

``tune`` and ``experiments`` accept evaluation-engine options:
``-j/--jobs N`` fans candidate batches out over a pool of N worker
processes (results are identical to ``-j 1``, just faster);
``--cache [DIR]``
enables the content-addressed on-disk result cache (default directory
``results/cache``), so re-runs skip every previously simulated
candidate and an interrupted run resumes by running the same command
again; ``--stats`` prints the measured cache-hit/simulation
accounting after a tune; ``--trace PATH`` records the whole search as a
JSONL span trace for the ``trace`` toolchain.

Robustness options (see ``docs/robustness.md``): ``--timeout SECONDS``
and ``--retries N`` supervise candidate execution; ``--inject-faults SPEC``
deterministically injects candidate failures for chaos testing, and
``--inject-fs-faults SPEC`` does the same to the storage layer (ENOSPC,
torn writes, crash-before-rename, corrupt reads) — search results are
unchanged by construction, only persistence suffers.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import EcoOptimizer, derive_variants
from repro.eval import EvalEngine
from repro.kernels import KERNELS, default_problem, get_kernel
from repro.machines import MACHINES, get_machine
from repro.sim import execute
from repro.storage import StorageError

_EXPERIMENTS = ("table1", "table4", "fig4", "fig5", "searchcost", "motivation", "generality")
_DEFAULT_CACHE_DIR = "results/cache"
_DEFAULT_SOCKET = "results/serve.sock"
_DEFAULT_SERVE_STORE = "results/serve"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fault_plan_arg(text: str):
    from repro.faults import FaultPlan

    try:
        return FaultPlan.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _fs_fault_plan_arg(text: str):
    from repro.faults import FsFaultPlan

    try:
        return FsFaultPlan.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=1, metavar="N",
        help="evaluate candidate batches on N worker processes (default 1)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=_DEFAULT_CACHE_DIR, default=None, metavar="DIR",
        help=f"persist evaluation results on disk (default dir: {_DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the search as a JSONL span trace at PATH "
             "(analyze with `repro trace ...`)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="abandon a candidate attempt after SECONDS of wall time "
             "(parallel evaluation only; abandoned attempts are retried)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a transiently failed candidate up to N times (default 2)",
    )
    parser.add_argument(
        "--inject-faults", type=_fault_plan_arg, default=None, metavar="SPEC",
        help="chaos testing: deterministically inject candidate failures, "
             'e.g. "raise=0.2,hang=0.1,kill=0.05,seed=7" '
             "(kinds: raise hang corrupt kill; options: seed attempts "
             "hang_seconds)",
    )
    parser.add_argument(
        "--inject-fs-faults", type=_fs_fault_plan_arg, default=None,
        metavar="SPEC",
        help="chaos testing: deterministically inject filesystem faults "
             "into the result cache, e.g. "
             '"enospc=0.2,torn=0.2,crash=0.1,corrupt_read=0.2,seed=11" '
             "(each fault fires at most once per store artifact; results "
             "are unchanged, only persistence suffers — clean up with "
             "`repro doctor --repair`)",
    )


def _engine_policy(args):
    """The EvalPolicy a command's --timeout/--retries flags describe
    (None = engine defaults)."""
    if args.timeout is None and args.retries is None:
        return None
    from repro.eval import EvalPolicy

    kwargs = {}
    if args.timeout is not None:
        kwargs["timeout_seconds"] = args.timeout
    if args.retries is not None:
        kwargs["max_retries"] = args.retries
    return EvalPolicy(**kwargs)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ECO: models + guided empirical search (CGO 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list simulated machines")

    variants = sub.add_parser("variants", help="derive parameterized variants")
    variants.add_argument("kernel", choices=sorted(KERNELS))
    variants.add_argument("--machine", default="sgi")

    tune = sub.add_parser("tune", help="run the full two-phase optimizer")
    tune.add_argument("kernel", choices=sorted(KERNELS))
    tune.add_argument("--machine", default="sgi")
    tune.add_argument("--size", type=int, default=48)
    tune.add_argument("--emit", metavar="FILE.c", default=None)
    tune.add_argument("--explain", action="store_true",
                      help="print the full optimization report")
    tune.add_argument("--stats", action="store_true",
                      help="print evaluation-engine accounting (cache hits, "
                           "simulations, per-stage wall time)")
    tune.add_argument("--prescreen", dest="prescreen", action="store_true",
                      default=True,
                      help="skip simulating candidates the analytical model "
                           "bounds clearly worse than the running best "
                           "(default on; see docs/search.md)")
    tune.add_argument("--no-prescreen", dest="prescreen", action="store_false",
                      help="simulate every candidate (the escape hatch when "
                           "the model is suspected of mispruning)")
    tune.add_argument("--ranker", metavar="MODEL.json", default=None,
                      help="rank candidate batches with a trained learned "
                           "surrogate and simulate only the predicted-best "
                           "plus exploration draws (train with `repro model "
                           "train`; a missing or mismatched artifact falls "
                           "back to simulating everything)")
    _add_engine_options(tune)

    run = sub.add_parser("run", help="simulate the untransformed kernel")
    run.add_argument("kernel", choices=sorted(KERNELS))
    run.add_argument("--machine", default="sgi")
    run.add_argument("--size", type=int, default=32)

    experiments = sub.add_parser("experiments", help="regenerate paper tables/figures")
    experiments.add_argument("names", nargs="*", choices=[[], *_EXPERIMENTS][1:] or None,
                             default=list(_EXPERIMENTS))
    _add_engine_options(experiments)

    bench = sub.add_parser(
        "bench",
        help="search benchmark: -j 1 vs -j N wall + plain/pruned walls "
             "of the prescreen and the learned ranker",
    )
    bench.add_argument("--quick", action="store_true",
                       help="smaller sizes, fewer repeats (the CI smoke mode)")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero on regression vs the committed floor "
                            "(benchmarks/perf/search_floor.json)")
    bench.add_argument("-o", "--out", default=None, metavar="FILE",
                       help="result file (default BENCH_search.json)")

    trace = sub.add_parser("trace", help="analyze a recorded search trace")
    trace.add_argument("action", choices=("summary", "timeline", "convergence", "chrome"))
    trace.add_argument("trace", metavar="TRACE.jsonl")
    trace.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write the rendering to FILE instead of stdout "
                            "(chrome: default TRACE.chrome.json)")

    corpus = sub.add_parser(
        "corpus",
        help="content-addressed trace corpus (ingest/list/stats/export)",
    )
    corpus.add_argument("action", choices=("ingest", "list", "stats", "export"))
    corpus.add_argument("traces", nargs="*", metavar="TRACE.jsonl",
                        help="trace files to ingest (ingest only)")
    corpus.add_argument("--root", default=None, metavar="DIR",
                        help="corpus directory (default results/corpus)")
    corpus.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="export format for the flattened per-candidate "
                             "table (default csv)")
    corpus.add_argument("--id", dest="trace_id", default=None, metavar="ID",
                        help="restrict export to one ingested trace id")
    corpus.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write output to FILE instead of stdout")

    model = sub.add_parser(
        "model",
        help="learned ranking surrogate: train on the corpus, inspect or "
             "score a sealed artifact (docs/search.md)",
    )
    model.add_argument("action", choices=("train", "info", "eval"))
    model.add_argument("path", nargs="?", metavar="MODEL.json", default=None,
                       help="artifact path (train: output, default "
                            "results/models/<kernel>-<machine>.json; "
                            "info/eval: the artifact to inspect or score)")
    model.add_argument("--kernel", choices=sorted(KERNELS), default="mm",
                       help="target kernel to train for (default mm)")
    model.add_argument("--machine", default="sgi",
                       help="target machine to train for (default sgi)")
    model.add_argument("--seed", type=int, default=0,
                       help="exploration seed recorded in the artifact "
                            "(default 0; part of the model fingerprint)")
    model.add_argument("--corpus", default=None, metavar="DIR",
                       help="train/eval on the flattened trace corpus at DIR "
                            "(default results/corpus)")
    model.add_argument("--traces", nargs="*", default=[],
                       metavar="TRACE.jsonl",
                       help="train/eval directly on trace files instead of "
                            "the corpus")

    serve = sub.add_parser(
        "serve",
        help="run the tuning daemon: tune requests over a Unix socket, "
             "with request dedup, a shared result cache/worker pool, and "
             "warm-start transfer between requests (docs/serving.md)",
    )
    serve.add_argument("--socket", default=_DEFAULT_SOCKET, metavar="PATH",
                       help=f"Unix socket to listen on (default {_DEFAULT_SOCKET})")
    serve.add_argument("--store", default=_DEFAULT_SERVE_STORE, metavar="DIR",
                       help="sealed request-result store; completed requests "
                            "are answered from here across daemon restarts "
                            f"(default {_DEFAULT_SERVE_STORE})")
    serve.add_argument("--cache", nargs="?", const=_DEFAULT_CACHE_DIR,
                       default=None, metavar="DIR",
                       help="share the on-disk simulation result cache across "
                            f"requests (default dir: {_DEFAULT_CACHE_DIR})")
    serve.add_argument("-j", "--jobs", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes; all searches share one "
                            "fair-share pool of N (default 1)")
    serve.add_argument("--concurrency", type=_positive_int, default=2,
                       metavar="N",
                       help="searches running at once (default 2)")

    submit = sub.add_parser(
        "submit", help="send one tune request to a running serve daemon"
    )
    submit.add_argument("kernel", choices=sorted(KERNELS))
    submit.add_argument("--machine", default="sgi")
    submit.add_argument("--size", type=int, default=48)
    submit.add_argument("--socket", default=_DEFAULT_SOCKET, metavar="PATH")
    submit.add_argument("--prescreen", dest="prescreen", action="store_true",
                        default=True,
                        help="model-prescreen candidates (default on, "
                             "matching `repro tune`)")
    submit.add_argument("--no-prescreen", dest="prescreen",
                        action="store_false",
                        help="simulate every candidate")
    submit.add_argument("--max-variants", type=_positive_int, default=None,
                        metavar="N",
                        help="tune only the first N derived variants")
    submit.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a search-config knob by name, e.g. "
                             "--set full_search_variants=2 (repeatable; "
                             "unknown keys are rejected by the daemon)")
    submit.add_argument("--no-warm-start", dest="warm_start",
                        action="store_false", default=True,
                        help="search cold even when a nearby completed "
                             "request could seed it (warm start never "
                             "changes the winner, only the search cost)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the result and print the winner")

    for name, text in (
        ("status", "poll one submitted request"),
        ("result", "fetch the winner of a completed request"),
        ("watch", "stream a running request's progress events"),
    ):
        one = sub.add_parser(name, help=text)
        one.add_argument("key", metavar="KEY",
                         help="request key printed by `repro submit`")
        one.add_argument("--socket", default=_DEFAULT_SOCKET, metavar="PATH")
        if name == "result":
            one.add_argument("--wait", action="store_true",
                             help="block until the request completes")

    doctor = sub.add_parser(
        "doctor",
        help="scan (and --repair) the persistent stores for corruption, "
             "orphaned temp files and stale locks",
    )
    doctor.add_argument("--cache", default=None, metavar="DIR",
                        help=f"cache directory (default {_DEFAULT_CACHE_DIR})")
    doctor.add_argument("--corpus", default=None, metavar="DIR",
                        help="corpus directory (default results/corpus)")
    doctor.add_argument("--repair", action="store_true",
                        help="quarantine corrupt entries, remove orphaned "
                             "temps and stale locks, rebuild the corpus "
                             "index from its trace blobs")
    doctor.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    doctor.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    return parser


def _cmd_machines() -> None:
    for machine in MACHINES.values():
        print(machine.describe())


def _cmd_variants(args) -> None:
    machine = get_machine(args.machine)
    print(machine.describe())
    print()
    for variant in derive_variants(get_kernel(args.kernel), machine):
        print(variant.describe())
        print()


def _cmd_tune(args) -> None:
    machine = get_machine(args.machine)
    kernel = get_kernel(args.kernel)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(command="tune", kernel=args.kernel,
                        machine=args.machine, size=args.size, jobs=args.jobs)
    cache = None
    if args.cache:
        from repro.eval import ResultCache

        cache = ResultCache(args.cache, fs_faults=args.inject_fs_faults)
    engine = EvalEngine(
        machine,
        jobs=args.jobs,
        cache=cache,
        tracer=tracer,
        policy=_engine_policy(args),
        fault_plan=args.inject_faults,
    )
    from repro.core import SearchConfig

    ranker = None
    if args.ranker:
        from repro.analysis.learned import load_ranker

        try:
            ranker = load_ranker(args.ranker)
        except OSError as error:
            # fail open: an absent model means full simulation, not a crash
            # (a *corrupt* artifact still refuses loudly via StorageError)
            print(
                f"warning: learned ranker disabled ({error}); "
                f"simulating all candidates",
                file=sys.stderr,
            )
    optimizer = EcoOptimizer(
        kernel, machine,
        SearchConfig(prescreen=args.prescreen, ranker=ranker),
        engine=engine,
    )
    problem = default_problem(kernel, args.size)
    tuned = optimizer.optimize(problem)
    if args.explain:
        from repro.core import explain

        print(explain(tuned, problem))
    else:
        print(tuned.describe())
        # the search already simulated its winner at this size
        counters = tuned.result.counters
        print(f"\nat N={args.size}: {counters.mflops:.1f} MFLOPS "
              f"({100 * counters.mflops / machine.peak_mflops:.1f}% of peak)")
    if args.stats:
        from repro.experiments.report import format_eval_stats, format_eval_stats_json

        print("\nevaluation engine:")
        print(format_eval_stats(tuned.result.stats))
        print("stats json: " + format_eval_stats_json(tuned.result.stats))
    if tracer is not None:
        tracer.snapshot_metrics(engine.metrics)
        tracer.dump(args.trace)
        print(f"wrote trace {args.trace} ({len(tracer.events())} events)")
    engine.close()
    if args.emit:
        from repro.codegen import emit_c

        source = emit_c(tuned.build(), with_main=True, main_params=problem)
        with open(args.emit, "w") as handle:
            handle.write(source)
        print(f"wrote {args.emit}")


def _cmd_run(args) -> None:
    machine = get_machine(args.machine)
    kernel = get_kernel(args.kernel)
    counters = execute(kernel, default_problem(kernel, args.size), machine)
    for key, value in counters.row().items():
        print(f"{key:12} {value}")


def _cmd_bench(args) -> None:
    from repro import bench

    code = bench.run(args)
    if code:
        raise SystemExit(code)


def _cmd_serve(args) -> None:
    from repro.serve import ServeDaemon

    daemon = ServeDaemon(
        args.socket,
        args.store,
        cache_dir=args.cache,
        jobs=args.jobs,
        concurrency=args.concurrency,
    )
    print(f"repro serve: listening on {args.socket} "
          f"(store {args.store}, jobs {args.jobs}, "
          f"concurrency {args.concurrency})")
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass


def _submit_request(args) -> dict:
    import json

    request: dict = {
        "kernel": args.kernel,
        "machine": args.machine,
        "size": args.size,
        "warm_start": args.warm_start,
    }
    # sent explicitly: the daemon's SearchConfig default is prescreen off,
    # and a default submit must run the same search as a default `tune`
    config: dict = {"prescreen": args.prescreen}
    for item in args.overrides:
        key, sep, text = item.partition("=")
        if not sep:
            raise SystemExit(f"repro submit: --set expects KEY=VALUE, got {item!r}")
        try:
            config[key.strip()] = json.loads(text)
        except json.JSONDecodeError:
            config[key.strip()] = text  # daemon-side coercion / rejection
    request["config"] = config
    if args.max_variants is not None:
        request["max_variants"] = args.max_variants
    return request


def _print_winner(reply: dict) -> None:
    winner = reply.get("winner") or {}
    values = " ".join(f"{k}={v}" for k, v in sorted(
        (winner.get("values") or {}).items()
    ))
    print(f"state   {reply.get('state')}")
    served = reply.get("served") or {}
    if served:
        parts = []
        if reply.get("cached"):
            parts.append("answered from store")
        if served.get("warm_start"):
            parts.append(f"warm-started from {served.get('donor')}")
        if served.get("sims") is not None:
            parts.append(f"{served['sims']} simulations")
        if parts:
            print(f"served  {', '.join(parts)}")
    elif reply.get("cached"):
        print("served  answered from store")
    if winner:
        print(f"winner  {winner.get('variant')}  {values}")
        print(f"        {winner.get('mflops', 0):.1f} MFLOPS "
              f"({winner.get('cycles', 0):.0f} cycles)")


def _cmd_submit(args) -> None:
    from repro.serve import ServeClient

    client = ServeClient(args.socket)
    reply = client.submit(_submit_request(args), wait=args.wait)
    print(f"key     {reply['key']}")
    if args.wait:
        _print_winner(reply)
    else:
        print(f"state   {reply.get('state')}")
        print(f"        (poll with `repro status {reply['key']}`, "
              f"stream with `repro watch {reply['key']}`)")


def _cmd_status(args) -> None:
    from repro.serve import ServeClient

    reply = ServeClient(args.socket).status(args.key)
    print(f"{args.key}: {reply.get('state')}")
    if reply.get("error"):
        print(f"  error: {reply['error']}")


def _cmd_result(args) -> None:
    from repro.serve import ServeClient

    reply = ServeClient(args.socket).result(args.key, wait=args.wait)
    if reply.get("state") == "unknown":
        raise SystemExit(f"repro result: unknown request {args.key}")
    if reply.get("state") == "failed":
        raise SystemExit(f"repro result: {args.key} failed: {reply.get('error')}")
    if reply.get("state") != "done":
        print(f"{args.key}: {reply.get('state')} (use --wait to block)")
        return
    _print_winner(reply)


def _cmd_watch(args) -> None:
    from repro.serve import ServeClient

    for line in ServeClient(args.socket).watch(args.key):
        if not line.get("ok", True):
            raise SystemExit(f"repro watch: {line.get('error')}")
        if line.get("done"):
            print(f"{args.key}: {line.get('state')}")
            break
        event = line.get("event") or {}
        attrs = event.get("attrs") or {}
        label = attrs.get("variant", event.get("name", ""))
        print(f"{event.get('type', '?'):<6} {label}")


def _cmd_trace(args) -> None:
    import json

    from repro.obs import (
        read_trace,
        render_convergence,
        render_summary,
        render_timeline,
        to_chrome_trace,
    )

    load = read_trace(args.trace)
    events = load.events
    if args.action == "summary":
        # the summary folds loader notices into its own output
        text = render_summary(events, load.notices)
    else:
        _print_notices(load)
        if args.action == "chrome":
            output = args.output or f"{args.trace.removesuffix('.jsonl')}.chrome.json"
            with open(output, "w") as handle:
                json.dump(to_chrome_trace(events), handle, indent=1)
            print(f"wrote {output} (open in chrome://tracing or ui.perfetto.dev)")
            return
        render = {
            "timeline": render_timeline,
            "convergence": render_convergence,
        }[args.action]
        text = render(events)
    _write_or_print(text, args.output)


def _print_notices(load) -> None:
    """Report on stderr what loading a trace forgave (torn lines, a
    newer schema), so no command reads a partial trace silently."""
    for notice in load.notices:
        print(f"warning: {load.path}: {notice}", file=sys.stderr)


def _write_or_print(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text + ("" if text.endswith("\n") else "\n"))
        print(f"wrote {output}")
    else:
        print(text)


def _cmd_corpus(args) -> None:
    from repro.obs.corpus import Corpus

    corpus = Corpus(args.root) if args.root else Corpus()
    if args.action == "ingest":
        if not args.traces:
            raise SystemExit("corpus ingest: no trace files given")
        for path in args.traces:
            result = corpus.ingest(path)
            for warning in result.warnings:
                print(f"warning: {path}: {warning}", file=sys.stderr)
            verb = "ingested" if result.new else "already present"
            entry = result.entry
            skipped = (
                f", {entry['skipped_lines']} lines skipped"
                if entry["skipped_lines"] else ""
            )
            print(
                f"{verb} {result.id}: {path} "
                f"({entry['events']} events, {entry['evals']} evals{skipped})"
            )
        return
    if args.action == "list":
        entries = corpus.entries()
        if not entries:
            print(f"corpus at {corpus.root} is empty")
            return
        print(f"{'id':<18} {'schema':>6} {'evals':>6} {'sims':>6} "
              f"{'skips':>6}  searches")
        for entry in entries:
            searches = "; ".join(
                f"{s['kernel']}@{s['machine']}" for s in entry["searches"]
            )
            print(
                f"{entry['id']:<18} {str(entry['schema']):>6} "
                f"{entry['evals']:>6} {entry['sims']:>6} "
                f"{entry['prescreen_skips']:>6}  {searches}"
            )
        return
    if args.action == "stats":
        import json

        print(json.dumps(corpus.stats(), indent=1))
        return
    # export
    _write_or_print(corpus.export(args.format, args.trace_id), args.output)


def _model_rows(args) -> list:
    """Flattened training/eval rows: trace files when given, else the
    corpus."""
    if args.traces:
        from repro.obs.corpus import flatten_trace
        from repro.obs.reader import read_trace

        rows = []
        for path in args.traces:
            load = read_trace(path)
            _print_notices(load)
            rows.extend(flatten_trace(load.events))
        return rows
    from repro.obs.corpus import Corpus

    corpus = Corpus(args.corpus) if args.corpus else Corpus()
    return corpus.rows()


def _cmd_model(args) -> None:
    import os

    from repro.analysis.learned import (
        TrainingError,
        evaluate_ranker,
        load_ranker,
        save_ranker,
        train_ranker,
    )

    if args.action == "train":
        out = args.path or os.path.join(
            "results", "models", f"{args.kernel}-{args.machine}.json"
        )
        try:
            ranker = train_ranker(
                _model_rows(args), args.kernel, args.machine, seed=args.seed
            )
        except TrainingError as error:
            raise SystemExit(f"repro model train: {error}")
        save_ranker(out, ranker)
        training = ranker.training
        print(f"wrote {out}")
        print(f"  fingerprint {ranker.fingerprint}  "
              f"rows {ranker.rows}  seed {ranker.seed}")
        rho = training.get("spearman")
        print(f"  training rmse(log cycles) "
              f"{training.get('rmse_log_cycles', float('nan')):.4f}  "
              f"spearman {'n/a' if rho is None else f'{rho:.3f}'}")
        return
    if not args.path:
        raise SystemExit(f"repro model {args.action}: artifact path required")
    try:
        ranker = load_ranker(args.path)
    except OSError as error:
        raise SystemExit(f"repro model: cannot read {args.path}: {error}")
    if args.action == "info":
        training = ranker.training
        print(f"{args.path}:")
        print(f"  kernel {ranker.kernel_name} @ {ranker.machine_name} "
              f"(spec {ranker.machine_spec})")
        print(f"  fingerprint {ranker.fingerprint}")
        print(f"  rows {ranker.rows}  seed {ranker.seed}  "
              f"ridge lambda {ranker.ridge_lambda}")
        print(f"  params {', '.join(ranker.params)} "
              f"({len(ranker.feature_names)} features)")
        if training:
            rho = training.get("spearman")
            print(f"  training rmse(log cycles) "
                  f"{training.get('rmse_log_cycles', float('nan')):.4f}  "
                  f"spearman {'n/a' if rho is None else f'{rho:.3f}'}")
        return
    # eval
    metrics = evaluate_ranker(ranker, _model_rows(args))
    print(f"{args.path}: scored {metrics['scored']} of {metrics['points']} "
          f"unique tiling points")
    rho = metrics["spearman"]
    mae = metrics["mae_log_cycles"]
    print(f"  spearman {'n/a' if rho is None else f'{rho:.3f}'}  "
          f"mae(log cycles) {'n/a' if mae is None else f'{mae:.4f}'}")


def _cmd_doctor(args) -> None:
    import json

    from repro.storage.doctor import run_doctor

    report = run_doctor(
        cache=args.cache,
        corpus=args.corpus,
        repair=args.repair,
    )
    if args.json:
        text = json.dumps(report.as_dict(), indent=1, sort_keys=True)
    else:
        text = report.describe()
    _write_or_print(text, args.output)
    if not report.healthy:
        raise SystemExit(1)


def _cmd_experiments(
    names: List[str],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    trace: Optional[str] = None,
    policy=None,
    fault_plan=None,
    fs_faults=None,
) -> None:
    from repro.experiments import fig4, fig5, runner, searchcost, table1, table4

    runner.configure(
        jobs=jobs, cache_dir=cache_dir, trace=trace,
        policy=policy, fault_plan=fault_plan, fs_faults=fs_faults,
    )
    for name in names:
        if name == "table1":
            table1.main([])
        elif name == "table4":
            table4.main([])
        elif name == "fig4":
            fig4.main(["sgi"])
            fig4.main(["sun"])
        elif name == "fig5":
            fig5.main(["sgi"])
            fig5.main(["sun"])
        elif name == "searchcost":
            searchcost.main([])
        elif name == "motivation":
            from repro.experiments import model_vs_empirical

            model_vs_empirical.main(["sgi"])
        elif name == "generality":
            from repro.experiments import generality

            generality.main(["sgi"])
        print()
    written = runner.flush_trace()
    if written:
        print(f"wrote trace {written}")


def main(argv: Optional[List[str]] = None) -> None:
    args = _parser().parse_args(argv)
    try:
        if args.command == "machines":
            _cmd_machines()
        elif args.command == "variants":
            _cmd_variants(args)
        elif args.command == "tune":
            _cmd_tune(args)
        elif args.command == "run":
            _cmd_run(args)
        elif args.command == "experiments":
            _cmd_experiments(args.names, jobs=args.jobs, cache_dir=args.cache,
                             trace=args.trace, policy=_engine_policy(args),
                             fault_plan=args.inject_faults,
                             fs_faults=args.inject_fs_faults)
        elif args.command == "bench":
            _cmd_bench(args)
        elif args.command == "serve":
            _cmd_serve(args)
        elif args.command == "submit":
            _cmd_submit(args)
        elif args.command == "status":
            _cmd_status(args)
        elif args.command == "result":
            _cmd_result(args)
        elif args.command == "watch":
            _cmd_watch(args)
        elif args.command == "trace":
            _cmd_trace(args)
        elif args.command == "corpus":
            _cmd_corpus(args)
        elif args.command == "model":
            _cmd_model(args)
        elif args.command == "doctor":
            _cmd_doctor(args)
    except BrokenPipeError:
        # stdout was closed mid-print (e.g. piped into `head`): exit quietly
        import os

        os._exit(0)
    except StorageError as error:
        # a store refused (corrupt index or artifact, lock timeout): a clean
        # actionable message, not a traceback
        raise SystemExit(f"repro: {error}")


if __name__ == "__main__":
    main()
