"""Content-addressed candidate keys.

A candidate experiment is fully determined by (a) the kernel IR being
transformed, (b) the variant recipe and its concrete parameter binding,
prefetch placement and padding, (c) the problem size, and (d) the machine
spec (which shapes both the generated code — copy-buffer conflict pads,
prefetch line granularity — and the simulated timing).  ``candidate_key``
hashes a canonical serialization of all four, so the same candidate maps
to the same key in every process and on every run: the basis of the
on-disk result cache (:mod:`repro.eval.cache`).

Everything is serialized through stable, human-auditable forms (the IR
pseudo-printer, ``str(Expr)``, sorted item lists) rather than ``pickle``
or ``hash()``, both of which vary across interpreter runs.  The kernel,
variant and machine of a search recur in every key it makes, so each
object's canonical JSON is rendered once and kept in a bounded memo
(:func:`_canonical`); a key is byte-identical to dumping the whole
payload at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.variants import PrefetchSite, Variant
from repro.ir.nest import Kernel
from repro.ir.printer import format_kernel
from repro.machines import MachineSpec

__all__ = [
    "candidate_key",
    "kernel_fingerprint",
    "machine_fingerprint",
    "machine_spec_hash",
    "trace_signature",
    "variant_fingerprint",
]


def kernel_fingerprint(kernel: Kernel) -> dict:
    """Canonical description of a kernel: declarations + printed body."""
    return {
        "name": kernel.name,
        "params": list(kernel.params),
        "consts": list(kernel.consts),
        "arrays": [
            {
                "name": decl.name,
                "shape": [str(dim) for dim in decl.shape],
                "temp": bool(decl.temp),
            }
            for decl in kernel.arrays
        ],
        "flop_basis": str(kernel.flop_basis) if kernel.flop_basis is not None else None,
        "body": format_kernel(kernel),
    }


def variant_fingerprint(variant: Variant) -> dict:
    """Canonical description of a variant recipe (phase 1's output)."""
    return {
        "name": variant.name,
        "kernel": variant.kernel_name,
        "point_order": list(variant.point_order),
        "control_order": list(variant.control_order),
        "tiles": [list(t) for t in variant.tiles],
        "unrolls": [list(u) for u in variant.unrolls],
        "register_loop": variant.register_loop,
        "copies": [
            {
                "array": plan.array,
                "temp": plan.temp,
                "dims": [list(d) for d in plan.dims],
                "level": plan.level,
            }
            for plan in variant.copies
        ],
        "constraints": [
            [str(c.expr), str(c.bound), c.label, bool(c.hard)]
            for c in variant.constraints
        ],
    }


def machine_fingerprint(machine: MachineSpec) -> dict:
    """Canonical description of a machine spec (frozen dataclasses)."""
    return dataclasses.asdict(machine)


def machine_spec_hash(machine: MachineSpec) -> str:
    """16-hex content hash of the full machine spec.

    Two machines with the same *name* but different cache/TLB/latency
    parameters hash differently — the column ``flatten_trace`` carries so
    a learned model is never trained across silently-mixed specs, and
    the check a loaded model artifact applies before ranking.
    """
    canonical = _canonical(machine, machine_fingerprint)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: canonical JSON of the kernels, variants and machines keys were made
#: for, by object identity.  Each entry holds its object, so an id stays
#: that object's while the entry lives; the objects are frozen
#: dataclasses, so the JSON never goes stale.  The lock covers searches
#: running on threads of one process (the serve daemon's).
_CANONICAL_CAP = 64
_CANONICAL: Dict[int, Tuple[object, str]] = {}
_CANONICAL_LOCK = threading.Lock()


def _canonical(obj: Any, fingerprint: Callable[[Any], dict]) -> str:
    """``fingerprint(obj)`` as canonical JSON, rendered once per object."""
    with _CANONICAL_LOCK:
        found = _CANONICAL.get(id(obj))
        if found is not None and found[0] is obj:
            return found[1]
    text = _dumps(fingerprint(obj))
    with _CANONICAL_LOCK:
        _CANONICAL.pop(id(obj), None)
        _CANONICAL[id(obj)] = (obj, text)
        while len(_CANONICAL) > _CANONICAL_CAP:
            del _CANONICAL[next(iter(_CANONICAL))]
    return text


def _digest(
    kernel: Kernel, variant: Variant, machine: MachineSpec, payload: Dict[str, Any]
) -> str:
    """SHA-256 of the canonical JSON of ``payload`` plus the kernel,
    variant and machine fingerprints (keys in sorted order at every
    level, as ``json.dumps(..., sort_keys=True)`` writes them)."""
    parts = {key: _dumps(value) for key, value in payload.items()}
    parts["kernel"] = _canonical(kernel, kernel_fingerprint)
    parts["variant"] = _canonical(variant, variant_fingerprint)
    parts["machine"] = _canonical(machine, machine_fingerprint)
    canonical = "{" + ",".join(
        f"{_dumps(key)}:{parts[key]}" for key in sorted(parts)
    ) + "}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def candidate_key(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    prefetch: Optional[Mapping[PrefetchSite, int]],
    pads: Optional[Mapping[str, int]],
    problem: Mapping[str, int],
    machine: MachineSpec,
) -> str:
    """SHA-256 hex digest identifying one candidate experiment."""
    payload = {
        "values": sorted((k, int(v)) for k, v in values.items()),
        "prefetch": sorted(
            (site.array, site.loop, int(d)) for site, d in (prefetch or {}).items()
        ),
        "pads": sorted((k, int(v)) for k, v in (pads or {}).items() if v),
        "problem": sorted((k, int(v)) for k, v in problem.items()),
    }
    return _digest(kernel, variant, machine, payload)


def trace_signature(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    problem: Mapping[str, int],
    machine: MachineSpec,
) -> str:
    """SHA-256 digest of everything *except* prefetch placement and pads.

    Two candidates share a trace signature iff they differ only in the
    prefetch/padding axes — exactly the axes applied as cheap suffixes of
    the build pipeline (prefetch insertion is :func:`instantiate`'s last
    step, and ``pad_arrays`` runs after it).  The engine's full/delta
    accounting keys on it: a later simulation with the same signature is
    a *delta* of an already-simulated candidate, differing from it only
    in the suffix (prefetch insertion, pad).  The front end itself is
    shared more widely, per recipe shape
    (:func:`repro.core.variants.instantiate_base`).

    The signature deliberately says nothing about *simulation* reuse:
    padding and prefetch distance change cache-set mapping and fill
    timing — that is their entire purpose — so classification always
    re-runs; what the signature licenses is sharing the front end.
    """
    payload = {
        "values": sorted((k, int(v)) for k, v in values.items()),
        "problem": sorted((k, int(v)) for k, v in problem.items()),
    }
    return _digest(kernel, variant, machine, payload)
