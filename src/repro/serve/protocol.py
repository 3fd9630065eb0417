"""Request canonicalization and the NDJSON wire format.

A tune request names a kernel, a problem size, a machine and a search
configuration.  Two requests that *mean* the same experiment must
coalesce onto one search and one stored answer, however they were
spelled: config keys in any order, defaults written out or omitted, the
machine given by registry name or as an inline spec dict.  So the key
is not a hash of the raw request — it is a hash of
:func:`canonical_request`'s fully-resolved form:

* ``problem`` — explicit dims, sorted (a bare ``size`` expands through
  the same rule the ``repro tune`` CLI uses);
* ``machine`` — the full spec fingerprint
  (:func:`repro.eval.keys.machine_fingerprint`), so ``"sgi"`` and the
  equivalent spec dict hash identically while any parameter change
  (cache size, latency …) changes the key;
* ``config`` — every trajectory-affecting :class:`SearchConfig` knob,
  defaults filled in.  Serving hints (``warm_start``) stay out: they
  change cost, never the answer.

Unknown request or config keys are a :class:`ProtocolError`, not a
silent ignore — a typo'd knob must not dedup against the default.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Tuple

__all__ = [
    "CONFIG_FIELDS",
    "ProtocolError",
    "canonical_request",
    "config_from_canonical",
    "decode_line",
    "encode_line",
    "request_key",
]


class ProtocolError(ValueError):
    """A malformed request or wire line (client error, not a crash)."""


#: the trajectory-affecting SearchConfig knobs a request may set —
#: exactly the fields the checkpoint journal scope records (plus the
#: structural ``max_variants``, carried at the request top level)
CONFIG_FIELDS = ("full_search_variants", "search_padding", "prescreen")

#: lower bounds of the numeric knobs a search cannot run below (fewer
#: than one fully searched variant fails the search instead of the
#: request)
_CONFIG_MINIMUMS = {"full_search_variants": 1}

_REQUEST_KEYS = {
    "kernel", "size", "problem", "machine", "config", "max_variants",
    "warm_start",
}


def _coerce(name: str, value: Any, default: Any) -> Any:
    """Coerce a config value to its default's type (bool before int:
    ``bool`` is an ``int`` subclass, and ``prescreen: 1`` must
    canonicalize equal to ``prescreen: true``)."""
    if isinstance(default, bool):
        if isinstance(value, (bool, int)) and value in (0, 1):
            return bool(value)
        raise ProtocolError(f"config.{name} must be a boolean: {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"config.{name} has invalid value {value!r}") from None


def canonical_request(raw: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Resolve a raw request to ``(canonical, hints)``.

    ``canonical`` is the hashed identity (see module docstring);
    ``hints`` carries the serving-side extras that must *not* affect
    the key: the ``warm_start`` opt-out, and the display name/size the
    per-request trace meta uses (matching ``repro tune``'s meta so the
    canonical traces compare byte-for-byte).
    """
    from repro.core.search import SearchConfig
    from repro.eval.keys import machine_fingerprint
    from repro.kernels import KERNELS, get_kernel
    from repro.machines import get_machine, machine_from_dict

    if not isinstance(raw, Mapping):
        raise ProtocolError(f"request must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _REQUEST_KEYS)
    if unknown:
        raise ProtocolError(f"unknown request keys: {', '.join(unknown)}")

    kernel_name = raw.get("kernel")
    if kernel_name not in KERNELS:
        known = ", ".join(sorted(KERNELS))
        raise ProtocolError(f"unknown kernel {kernel_name!r}; known: {known}")
    kernel = get_kernel(kernel_name)

    machine_arg = raw.get("machine", "sgi")
    try:
        if isinstance(machine_arg, str):
            machine = get_machine(machine_arg)
        elif isinstance(machine_arg, Mapping):
            machine = machine_from_dict(dict(machine_arg))
        else:
            raise ProtocolError(
                f"machine must be a name or a spec object, got "
                f"{type(machine_arg).__name__}"
            )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"bad machine: {error}") from None

    if "problem" in raw and "size" in raw:
        raise ProtocolError("give either 'size' or 'problem', not both")
    if "problem" in raw:
        try:
            problem = {str(k): int(v) for k, v in dict(raw["problem"]).items()}
        except (TypeError, ValueError):
            raise ProtocolError(f"bad problem: {raw['problem']!r}") from None
    else:
        try:
            size = int(raw.get("size", 48))
        except (TypeError, ValueError):
            raise ProtocolError(f"bad size: {raw.get('size')!r}") from None
        # the one-shot CLI's expansion rule (repro.__main__._problem)
        problem = {"N": size}
        for param in kernel.params:
            problem.setdefault(param, 3)
    if any(v < 1 for v in problem.values()):
        raise ProtocolError(f"problem dims must be >= 1: {problem}")
    missing = sorted(set(kernel.params) - set(problem))
    if missing:
        raise ProtocolError(f"problem is missing dims: {', '.join(missing)}")

    defaults = SearchConfig()
    raw_config = raw.get("config") or {}
    if not isinstance(raw_config, Mapping):
        raise ProtocolError("config must be an object")
    unknown = sorted(set(raw_config) - set(CONFIG_FIELDS))
    if unknown:
        raise ProtocolError(f"unknown config keys: {', '.join(unknown)}")
    config = {}
    for name in CONFIG_FIELDS:
        default = getattr(defaults, name)
        if name in raw_config:
            config[name] = _coerce(name, raw_config[name], default)
            minimum = _CONFIG_MINIMUMS.get(name)
            if minimum is not None and not config[name] >= minimum:
                raise ProtocolError(
                    f"config.{name} must be >= {minimum}: {raw_config[name]!r}"
                )
        else:
            config[name] = default

    try:
        max_variants = int(raw.get("max_variants", 12))
    except (TypeError, ValueError):
        raise ProtocolError(f"bad max_variants: {raw.get('max_variants')!r}") from None
    if max_variants < 1:
        raise ProtocolError("max_variants must be >= 1")

    canonical = {
        "kernel": kernel.name,
        "problem": dict(sorted(problem.items())),
        "machine": machine_fingerprint(machine),
        "config": config,
        "max_variants": max_variants,
    }
    hints = {
        "warm_start": bool(raw.get("warm_start", True)),
        "machine_name": machine.name,
        "size": problem.get("N", max(problem.values())),
    }
    return canonical, hints


def request_key(canonical: Mapping[str, Any]) -> str:
    """16-hex content hash of a canonical request."""
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def config_from_canonical(config: Mapping[str, Any]):
    """Build the :class:`SearchConfig` a canonical config describes
    (ranker / warm seeds are attached by the daemon afterwards)."""
    from repro.core.search import SearchConfig

    return SearchConfig(**config)


# -- wire format ---------------------------------------------------------


def encode_line(obj: Mapping[str, Any]) -> bytes:
    """One NDJSON wire line (sorted keys: deterministic byte stream)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into an object, or raise :class:`ProtocolError`."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ProtocolError("empty line")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"bad JSON: {error}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected an object, got {type(obj).__name__}")
    return obj
