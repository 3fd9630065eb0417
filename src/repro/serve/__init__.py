"""Tuning-as-a-service: the ``repro serve`` daemon and its client.

One long-lived process owns the expensive state every one-shot tune
pays to rebuild — worker pool, result cache, trained rankers, completed
answers — and serves tune requests over a Unix socket (docs/serving.md):

* :mod:`repro.serve.protocol` — request canonicalization and keys, plus
  the newline-delimited-JSON wire helpers;
* :mod:`repro.serve.store` — the sealed request-result store (answers,
  canonical traces, per-request ranker artifacts);
* :mod:`repro.serve.broker` — the fair-share worker pool shared by all
  in-flight searches;
* :mod:`repro.serve.daemon` — the asyncio daemon;
* :mod:`repro.serve.client` — the blocking client the CLI uses.

Names resolve on first use (:mod:`repro._lazy`), so a client loads
neither the daemon nor the tuner behind it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "protocol": (
        "ProtocolError", "canonical_request", "decode_line", "encode_line",
        "request_key",
    ),
    "store": ("RequestStore",),
    "broker": ("SharedWorkerPool",),
    "daemon": ("ServeDaemon", "daemon_thread"),
    "client": ("ServeClient",),
})
