"""The ``repro serve`` daemon: one process, many tune requests.

An asyncio Unix-socket server speaking newline-delimited JSON
(docs/serving.md).  Each connection carries one operation — ``ping``,
``submit``, ``status``, ``result``, ``watch``, ``stats``,
``shutdown`` — and the daemon answers with one line (``watch`` streams
many).  Searches run on a small thread pool; every engine-observable
side effect stays inside one search thread at a time, so results are
exactly what the one-shot CLI computes.

What makes serving cheaper than one-shot tuning, in order:

1. **Dedup + result reuse** — requests canonicalize to a key
   (:mod:`repro.serve.protocol`); an in-flight key coalesces, a
   completed key answers instantly from the sealed
   :class:`~repro.serve.store.RequestStore` with zero simulations.
2. **Shared engines and caches** — engines are pooled per machine spec
   (:class:`EngineHub`) and reset between searches
   (:meth:`repro.eval.engine.EvalEngine.reset_for_search`), so the
   process pool, base-IR LRU and result cache persist across requests;
   at ``jobs > 1`` all engines share one fair-share
   :class:`~repro.serve.broker.SharedWorkerPool`.
3. **Warm-start transfer tuning** — a new request seeds its search from
   the nearest completed request's winner and reuses that request's
   trained ranker artifact (fail-open), cutting simulations without
   changing the winner.
4. **Streaming progress** — each search's tracer gets a live sink that
   multiplexes events to ``repro watch`` connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve.protocol import (
    ProtocolError,
    canonical_request,
    config_from_canonical,
    decode_line,
    encode_line,
    request_key,
)
from repro.serve.store import RequestStore

__all__ = ["EngineHub", "ServeDaemon", "daemon_thread"]


class EngineHub:
    """Checkout/checkin pool of :class:`EvalEngine` per machine spec.

    Engines are expensive to warm (worker pool, base-IR LRU) and cheap
    to reset, so the hub never discards one: a search checks an engine
    out, resets its per-search state, runs, and checks it back in.  All
    engines share the daemon's one result cache, and — at ``jobs > 1`` —
    one tenant each of the shared broker pool.
    """

    def __init__(self, cache, pool, jobs: int) -> None:
        self.cache = cache
        self.pool = pool
        self.jobs = jobs
        self._free: Dict[str, List[Any]] = {}
        self._all: List[Any] = []
        self._lock = threading.Lock()
        self.created = 0

    def checkout(self, machine, spec_hash: str):
        with self._lock:
            free = self._free.setdefault(spec_hash, [])
            if free:
                return free.pop()
        from repro.eval import EvalEngine

        engine = EvalEngine(
            machine,
            jobs=self.jobs,
            cache=self.cache,
            pool=self.pool.client() if self.pool is not None else None,
        )
        with self._lock:
            self._all.append(engine)
            self.created += 1
        return engine

    def checkin(self, spec_hash: str, engine) -> None:
        with self._lock:
            self._free.setdefault(spec_hash, []).append(engine)

    def close(self) -> None:
        with self._lock:
            engines, self._all = self._all, []
            self._free.clear()
        for engine in engines:
            engine.close()


class _Job:
    """One in-flight request: search state plus its audience."""

    __slots__ = (
        "key", "canonical", "hints", "state", "body", "error",
        "done", "watchers", "eval_events", "dedup_hits",
    )

    def __init__(self, key: str, canonical: Dict[str, Any],
                 hints: Dict[str, Any]) -> None:
        self.key = key
        self.canonical = canonical
        self.hints = hints
        self.state = "queued"
        self.body: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.done = asyncio.Event()
        self.watchers: List[asyncio.Queue] = []
        self.eval_events = 0
        self.dedup_hits = 0


class ServeDaemon:
    """See the module docstring; construct, then :meth:`run`."""

    def __init__(
        self,
        socket_path,
        store_root,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        concurrency: int = 2,
        fs_faults=None,
    ) -> None:
        from repro.eval import ResultCache
        from repro.serve.broker import SharedWorkerPool

        self.socket_path = Path(socket_path)
        self.store = RequestStore(store_root, fs_faults=fs_faults)
        self.cache = ResultCache(cache_dir, fs_faults=fs_faults)
        self.jobs = jobs
        self.concurrency = max(1, concurrency)
        self.pool = SharedWorkerPool(jobs) if jobs > 1 else None
        self.hub = EngineHub(self.cache, self.pool, jobs)
        self.jobs_by_key: Dict[str, _Job] = {}
        #: service counters, surfaced by the ``stats`` op
        self.counters = {
            "requests": 0,
            "dedup_hits": 0,
            "store_hits": 0,
            "searches": 0,
            "warm_starts": 0,
            "failures": 0,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------
    def run(self) -> None:
        """Blocking entry point (the CLI and ``daemon_thread`` use it)."""
        asyncio.run(self.main())

    async def main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="serve-search"
        )
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path)
        )
        try:
            async with server:
                await self._stopped.wait()
        finally:
            self._executor.shutdown(wait=True)
            self.hub.close()
            if self.pool is not None:
                self.pool.close()
            with contextlib.suppress(OSError):
                self.socket_path.unlink()

    async def _drain(self) -> int:
        """Wait for every in-flight search to finish; their count."""
        pending = [
            job for job in self.jobs_by_key.values()
            if job.state in ("queued", "running")
        ]
        for job in pending:
            await job.done.wait()
        return len(pending)

    # -- connection handling ---------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                raw = decode_line(line)
                await self._dispatch(raw, writer)
            except ProtocolError as error:
                await self._send(writer, {"ok": False, "error": str(error)})
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter,
                    obj: Dict[str, Any]) -> None:
        writer.write(encode_line(obj))
        await writer.drain()

    async def _dispatch(self, raw: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = raw.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "op": "pong"})
        elif op == "submit":
            await self._op_submit(raw, writer)
        elif op == "status":
            await self._op_status(raw, writer)
        elif op == "result":
            await self._op_result(raw, writer)
        elif op == "watch":
            await self._op_watch(raw, writer)
        elif op == "stats":
            await self._op_stats(writer)
        elif op == "shutdown":
            await self._op_shutdown(writer)
        else:
            raise ProtocolError(f"unknown op {op!r}")

    # -- operations ------------------------------------------------------
    async def _op_submit(self, raw: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        if self._stopping:
            await self._send(
                writer, {"ok": False, "error": "daemon is shutting down"}
            )
            return
        canonical, hints = canonical_request(raw.get("request") or {})
        key = request_key(canonical)
        self.counters["requests"] += 1
        resp: Dict[str, Any] = {"ok": True, "key": key}
        job = self.jobs_by_key.get(key)
        stored = self.store.get(key)
        if stored is not None:
            self.counters["store_hits"] += 1
            resp.update(state="done", cached=True)
        elif job is not None and job.state in ("queued", "running"):
            job.dedup_hits += 1
            self.counters["dedup_hits"] += 1
            resp.update(state=job.state, dedup=True)
        else:
            job = _Job(key, canonical, hints)
            self.jobs_by_key[key] = job
            self._loop.create_task(self._run_job(job))
            resp.update(state="queued")
        if raw.get("wait"):
            job = self.jobs_by_key.get(key)
            if job is not None and not job.done.is_set():
                await job.done.wait()
            resp.update(self._result_payload(key, bool(raw.get("trace"))))
        await self._send(writer, resp)

    async def _op_status(self, raw: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        key = str(raw.get("key", ""))
        job = self.jobs_by_key.get(key)
        if job is not None:
            resp = {
                "ok": True, "key": key, "state": job.state,
                "evals": job.eval_events, "dedup_hits": job.dedup_hits,
            }
            if job.error:
                resp["error"] = job.error
            await self._send(writer, resp)
        elif self.store.get(key) is not None:
            await self._send(
                writer, {"ok": True, "key": key, "state": "done",
                         "cached": True}
            )
        else:
            await self._send(
                writer, {"ok": False, "key": key, "error": "unknown key"}
            )

    async def _op_result(self, raw: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        key = str(raw.get("key", ""))
        job = self.jobs_by_key.get(key)
        if raw.get("wait") and job is not None and not job.done.is_set():
            await job.done.wait()
        resp = {"ok": True, "key": key}
        resp.update(self._result_payload(key, bool(raw.get("trace"))))
        if resp.get("state") == "unknown":
            resp = {"ok": False, "key": key, "error": "unknown key"}
        await self._send(writer, resp)

    def _result_payload(self, key: str, include_trace: bool) -> Dict[str, Any]:
        """The answer fields shared by ``result`` and ``submit --wait``."""
        job = self.jobs_by_key.get(key)
        body = self.store.get(key)
        if body is None and job is not None:
            body = job.body
        if body is not None:
            payload = {
                "state": "done",
                "winner": body["winner"],
                "served": body["served"],
                "points": body["points"],
                "stats": body["stats"],
            }
            if include_trace:
                payload["trace"] = body["trace"]
            return payload
        if job is not None:
            payload = {"state": job.state}
            if job.error:
                payload["error"] = job.error
            return payload
        return {"state": "unknown"}

    async def _op_watch(self, raw: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        key = str(raw.get("key", ""))
        job = self.jobs_by_key.get(key)
        if job is None or job.done.is_set():
            payload = self._result_payload(key, False)
            if payload.get("state") == "unknown":
                await self._send(
                    writer, {"ok": False, "key": key, "error": "unknown key"}
                )
            else:
                await self._send(
                    writer,
                    {"ok": True, "key": key, "done": True,
                     "state": payload["state"]},
                )
            return
        queue: asyncio.Queue = asyncio.Queue()
        job.watchers.append(queue)
        try:
            await self._send(writer, {"ok": True, "key": key,
                                      "watching": True})
            while True:
                event = await queue.get()
                if event is None:
                    break
                await self._send(writer, {"key": key, "event": event})
        finally:
            with contextlib.suppress(ValueError):
                job.watchers.remove(queue)
        final = {"ok": True, "key": key, "done": True, "state": job.state}
        if job.error:
            final["error"] = job.error
        await self._send(writer, final)

    async def _op_stats(self, writer: asyncio.StreamWriter) -> None:
        resp = {
            "ok": True,
            "counters": dict(self.counters),
            "in_flight": sum(
                1 for j in self.jobs_by_key.values()
                if j.state in ("queued", "running")
            ),
            "store_keys": len(self.store.keys()),
            "engines": self.hub.created,
        }
        if self.pool is not None:
            resp["pool"] = {
                "submitted": self.pool.submitted,
                "recycles": self.pool.recycles,
            }
        await self._send(writer, resp)

    async def _op_shutdown(self, writer: asyncio.StreamWriter) -> None:
        self._stopping = True
        drained = await self._drain()
        await self._send(writer, {"ok": True, "drained": drained})
        self._stopped.set()

    # -- search execution ------------------------------------------------
    async def _run_job(self, job: _Job) -> None:
        job.state = "running"
        try:
            body = await self._loop.run_in_executor(
                self._executor, self._execute, job
            )
            job.body = body
            job.state = "done"
        except Exception as error:  # surfaced to the client, not fatal
            job.error = f"{type(error).__name__}: {error}"
            job.state = "failed"
            self.counters["failures"] += 1
        finally:
            job.done.set()
            for queue in list(job.watchers):
                queue.put_nowait(None)

    def _make_sink(self, job: _Job):
        """The tracer's live tap: progress counters + watch fan-out.

        Runs on the search thread; watcher queues only ever touched on
        the event loop."""
        loop = self._loop

        def sink(event: Dict[str, Any]) -> None:
            if event.get("type") == "event" and event.get("name") == "eval":
                job.eval_events += 1
            if job.watchers:
                loop.call_soon_threadsafe(self._fanout, job, event)

        return sink

    def _bump(self, name: str) -> None:
        """Count on the event loop, which owns ``counters``.  Search
        threads queue it with ``call_soon_threadsafe``; it runs before
        the search's own completion reaches ``_run_job``."""
        self.counters[name] += 1

    def _fanout(self, job: _Job, event: Dict[str, Any]) -> None:
        for queue in list(job.watchers):
            queue.put_nowait(event)

    def _execute(self, job: _Job) -> Dict[str, Any]:
        """Run one search on a worker thread and seal its answer.

        This is deliberately the same recipe as the one-shot
        ``repro tune --trace`` path — same tracer meta, same
        snapshot-then-read ordering — so a cold served request's
        canonical trace is byte-identical to the CLI's
        (docs/serving.md, "Determinism contract")."""
        from repro.core import EcoOptimizer
        from repro.eval.keys import machine_spec_hash
        from repro.kernels import get_kernel
        from repro.machines import machine_from_dict
        from repro.obs import MetricsRegistry, Tracer, canonical

        canonical_req = job.canonical
        kernel = get_kernel(canonical_req["kernel"])
        machine = machine_from_dict(canonical_req["machine"])
        spec_hash = machine_spec_hash(machine)
        problem = dict(canonical_req["problem"])
        config = config_from_canonical(canonical_req["config"])
        served: Dict[str, Any] = {
            "warm_start": False, "donor": None, "ranker": None,
        }
        if job.hints.get("warm_start", True):
            donor = self.store.nearest(
                kernel.name, spec_hash, problem, exclude=job.key
            )
            if donor is not None:
                donor_key, donor_body = donor
                winner = donor_body["winner"]
                config.warm_seeds = {
                    winner["variant"]: {
                        k: int(v) for k, v in winner["values"].items()
                    }
                }
                served["warm_start"] = True
                served["donor"] = donor_key
                self._loop.call_soon_threadsafe(self._bump, "warm_starts")
                ranker = self._donor_ranker(donor_key)
                if ranker is not None and ranker.mismatch(
                    kernel.name, machine
                ) is None:
                    config.ranker = ranker
                    served["ranker"] = ranker.fingerprint

        tracer = Tracer(
            sink=self._make_sink(job),
            command="tune",
            kernel=kernel.name,
            machine=job.hints["machine_name"],
            size=job.hints["size"],
            jobs=self.jobs,
        )
        engine = self.hub.checkout(machine, spec_hash)
        try:
            engine.reset_for_search(tracer=tracer, metrics=MetricsRegistry())
            optimizer = EcoOptimizer(
                kernel, machine, config,
                max_variants=canonical_req["max_variants"], engine=engine,
            )
            tuned = optimizer.optimize(problem)
            tracer.snapshot_metrics(engine.metrics)
        finally:
            self.hub.checkin(spec_hash, engine)
        self._loop.call_soon_threadsafe(self._bump, "searches")
        result = tuned.result
        events = tracer.events()
        body = {
            "key": job.key,
            "request": canonical_req,
            "machine_spec": spec_hash,
            "winner": {
                "variant": result.variant.name,
                "values": {k: int(v) for k, v in sorted(result.values.items())},
                "prefetch": sorted(
                    [s.array, s.loop, int(d)]
                    for s, d in result.prefetch.items()
                ),
                "pads": {k: int(v) for k, v in sorted(result.pads.items())},
                "cycles": result.cycles,
                "mflops": result.mflops,
            },
            "points": result.points,
            "variants_considered": result.variants_considered,
            "stats": result.stats,
            "served": {**served, "sims": result.stats.get("simulations", 0)},
            "trace": canonical(events),
        }
        self._train_request_ranker(job.key, kernel, machine, events)
        self.store.put(job.key, body)
        return body

    def _donor_ranker(self, donor_key: str):
        """The donor's trained ranker, fail-open on any artifact trouble
        (a corrupt artifact is quarantined for the doctor, never served)."""
        from repro.analysis.learned import load_ranker
        from repro.storage.records import RecordError

        path = self.store.ranker_path(donor_key)
        try:
            return load_ranker(str(path))
        except OSError:
            return None
        except RecordError as error:
            from repro.storage.quarantine import quarantine_file

            quarantine_file(self.store.root, path, f"ranker-model: {error}")
            return None

    def _train_request_ranker(self, key: str, kernel, machine, events) -> None:
        """Distill this search's measurements into a ranker artifact for
        future near-neighbour requests (fail-soft: too few rows, or a
        failed write, just means no artifact)."""
        from repro.analysis.learned import TrainingError, save_ranker, train_ranker
        from repro.obs import flatten_trace

        path = self.store.ranker_path(key)
        if path.exists():
            return
        try:
            rows = flatten_trace(events)
            ranker = train_ranker(
                rows, kernel.name, machine.name, machine=machine
            )
            save_ranker(str(path), ranker)
        except (TrainingError, OSError):
            pass


@contextlib.contextmanager
def daemon_thread(socket_path, store_root, startup_timeout: float = 30.0,
                  **kwargs):
    """A live daemon on a background thread (tests, benchmarks).

    Yields the :class:`ServeDaemon` once the socket answers ``ping``;
    on exit sends ``shutdown`` (draining in-flight searches) and joins
    the thread.
    """
    from repro.serve.client import ServeClient

    daemon = ServeDaemon(socket_path, store_root, **kwargs)
    thread = threading.Thread(target=daemon.run, name="repro-serve",
                              daemon=True)
    thread.start()
    client = ServeClient(socket_path)
    deadline = time.monotonic() + startup_timeout
    while True:
        try:
            client.ping()
            break
        except (OSError, ProtocolError):
            if not thread.is_alive():
                raise RuntimeError("serve daemon died during startup")
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not come up in time")
            time.sleep(0.05)
    try:
        yield daemon
    finally:
        with contextlib.suppress(OSError, ProtocolError, RuntimeError):
            client.shutdown()
        thread.join(timeout=60)
