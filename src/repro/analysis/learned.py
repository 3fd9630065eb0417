"""Learned ranking surrogate with active learning (``repro model ...``).

The analytical prescreen (:mod:`repro.analysis.surrogate`) ranks
candidates pairwise against a fixed safety margin and avoids ~29% of the
golden-search simulations.  This module is the next step the ROADMAP
calls for: a cheap, numpy-only **regression/ranking model** fit on the
flattened trace corpus (:mod:`repro.obs.corpus`), used by the search as
a *batch ranker* — each tiling round hands its whole candidate batch to
the model, simulates only the predicted-best ``top_k`` plus a seeded
exploration sample, and feeds the new measurements back for an online
refit (active learning).

Model
-----
Two layers, queried in order:

* an **exact memo** of every measured binding the model was trained on
  (and every binding observed in-search): a point the model has already
  seen is predicted at its measured ``log(cycles)``, never through the
  regression — the model cannot misrank what it has measured;
* **ridge regression** on engineered features for everything else:

* ``log2`` of every tiling/unroll parameter (the search moves are
  doublings/halvings, so log-space is where the response is smooth),
  plus their quadratic log-space interactions (unroll products fill the
  register file, tile products fill a cache level — effects a model
  linear in the logs cannot see);
* the analytical terms the prescreen already computes — static issue
  cycles and the per-level miss estimates of the **instantiated**
  variant, plus their latency-priced sum (the prescreen's own score) —
  so the learned model starts from the analytical model's knowledge and
  learns the *residual* structure (conflicts, alignment, TLB) from
  measurements;

predicting ``log(cycles)``.  The model stores its **sufficient
statistics** (the Gram matrix ``X'X`` and moment vector ``X'y``) rather
than just the solved weights: an online refit is then one rank-1 update
per new measurement followed by a re-solve — exact, cheap, and
deterministic in the driver's consumption order, so ranks are identical
at every ``-j``, with or without speculation.

Artifact
--------
``repro model train`` writes the model through the storage-integrity
layer as a sealed, checksummed record (kind ``ranker-model``); a model
that fails its checksum refuses to load rather than serving stale or
mangled ranks.  The artifact's **fingerprint** — the SHA-256 of its
canonical body — identifies the trained state: the serve daemon records
it as provenance, and the ranker's feature/score caches are private to
one loaded instance, so a stale artifact can never serve stale ranks.
Training is seeded and versioned: the same corpus rows and seed produce
a byte-identical artifact.

Fail-open contract
------------------
Mirrors the prescreen: no model, a model trained for a different
kernel / machine / machine spec, an unscorable candidate (instantiation
fails), or a batch too small to rank — each falls back to simulating
everything.  Ranking decisions are *recorded at consumption* in driver
order (``EvalEngine.note_ranker_skip``), keeping winners and canonical
traces byte-identical across job counts, with or without speculation.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.surrogate import model_terms, stall_cycles
from repro.core.variants import Variant
from repro.ir.nest import Kernel
from repro.machines import MachineSpec

__all__ = [
    "DEFAULT_EXPLORE",
    "DEFAULT_RIDGE_LAMBDA",
    "DEFAULT_TOP_K",
    "MODEL_RECORD_KIND",
    "MODEL_VERSION",
    "LearnedRanker",
    "TrainingError",
    "evaluate_ranker",
    "load_ranker",
    "save_ranker",
    "spearman",
    "train_ranker",
]

#: sealed-record kind tag of the model artifact (repro.storage.records)
MODEL_RECORD_KIND = "ranker-model"

#: artifact body version; bump on any change to features or semantics
MODEL_VERSION = 1

#: ridge regularization on the standardized design matrix — small, just
#: enough to keep the solve well-conditioned on near-collinear features
DEFAULT_RIDGE_LAMBDA = 1e-3

#: search-side defaults: simulate the predicted-best ``top_k`` of each
#: tiling batch plus ``explore`` seeded exploration draws from the
#: *uncertain* (regression-predicted) rest.  Calibrated on the golden mm
#: searches across all four machine models (docs/search.md): top-1 + one
#: exploration draw + the 0.05 margin clears the committed >= 40%
#: pruning floor with the tuned winner unchanged everywhere.
DEFAULT_TOP_K = 1
DEFAULT_EXPLORE = 1
#: log-cycle confidence margin for regression-predicted candidates: one
#: the model cannot call worse than the running best by more than this
#: is simulated (a ridge error bar can't order near-ties; skipping them
#: would flip winners).  0.05 in log space is ~5% in cycles — about the
#: typical training RMSE; memoized (measured) predictions skip exactly
#: and need no margin.
DEFAULT_RANKER_MARGIN = 0.05

#: training refuses with fewer usable rows than this — a ranker fit on a
#: handful of points would rank noise
MIN_TRAINING_ROWS = 8


class TrainingError(ValueError):
    """The corpus rows cannot support training (too few, wrong target)."""


def _machine_spec_hash(machine: MachineSpec) -> str:
    # lazy import: repro.eval pulls the engine in; keep module import light
    from repro.eval.keys import machine_spec_hash

    return machine_spec_hash(machine)


def _values_key(variant_name: str, values: Mapping[str, int]) -> Tuple:
    return (variant_name, tuple(sorted((k, int(v)) for k, v in values.items())))


def _feature_names(params: Sequence[str], levels: int) -> List[str]:
    names = [f"log2_{p}" for p in params]
    # quadratic log-space terms: the response to one parameter depends on
    # the others (unroll products fill the register file, tile products
    # fill a cache level), and a linear-in-logs model cannot see that —
    # near-tie misrankings in register stages trace exactly here
    names.extend(
        f"log2_{params[i]}*log2_{params[j]}"
        for i in range(len(params))
        for j in range(i, len(params))
    )
    names.append("log1p_issue")
    names.extend(f"log1p_l{i + 1}_misses" for i in range(levels))
    names.append("log1p_analytical_score")
    names.append("bias")
    return names


def _raw_features(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    problem: Mapping[str, int],
    machine: MachineSpec,
    params: Sequence[str],
) -> Optional[List[float]]:
    """Feature vector of one binding; ``None`` = unscorable (fail open)."""
    terms = model_terms(kernel, variant, values, problem, machine)
    if terms is None:
        return None
    issue, per_level = terms
    stalls = stall_cycles(per_level, machine)
    logs = [math.log2(max(1, int(values.get(p, 1)))) for p in params]
    feats = list(logs)
    feats.extend(
        logs[i] * logs[j]
        for i in range(len(logs))
        for j in range(i, len(logs))
    )
    feats.append(math.log1p(max(0.0, issue)))
    feats.extend(math.log1p(max(0, m)) for m in per_level)
    feats.append(math.log1p(max(0.0, issue + stalls)))
    feats.append(1.0)  # bias column: not standardized, not scaled away
    return feats


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation with average ranks for ties (no scipy);
    ``None`` below two points or when either side is constant."""
    n = len(xs)
    if n < 2:
        return None

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            rank = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = rank
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mean = (n + 1) / 2.0
    num = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    den_x = sum((a - mean) ** 2 for a in rx)
    den_y = sum((b - mean) ** 2 for b in ry)
    if den_x == 0 or den_y == 0:
        return None
    return num / (den_x * den_y) ** 0.5


class LearnedRanker:
    """A trained ranking model bound to one (kernel, machine) target.

    Instances are mutable only through :meth:`observe` (the active-
    learning refit); :attr:`fingerprint` always names the *artifact* the
    instance was built from, so serve provenance and reports reference
    the trained state, not the transient in-search refits.  Use
    :meth:`clone` to give each search its own refit state.
    """

    def __init__(self, body: Mapping[str, Any]) -> None:
        version = body.get("version")
        if version != MODEL_VERSION:
            raise ValueError(
                f"ranker model version {version!r} is not {MODEL_VERSION} "
                f"(retrain with 'repro model train')"
            )
        self.kernel_name = str(body["kernel"])
        self.machine_name = str(body["machine"])
        self.machine_spec = str(body.get("machine_spec", ""))
        self.seed = int(body["seed"])
        self.ridge_lambda = float(body["ridge_lambda"])
        self.params: List[str] = [str(p) for p in body["params"]]
        self.feature_names: List[str] = [str(n) for n in body["feature_names"]]
        self.mean = np.asarray(body["mean"], dtype=np.float64)
        self.scale = np.asarray(body["scale"], dtype=np.float64)
        self.xtx = np.asarray(body["xtx"], dtype=np.float64)
        self.xty = np.asarray(body["xty"], dtype=np.float64)
        self.rows = int(body["rows"])
        self.training = dict(body.get("training", {}))
        #: measured bindings, in deterministic training/observation order:
        #: ``[variant, sorted values items, sorted problem items, log_cycles]``
        self.samples: List[List[Any]] = [
            [
                str(s[0]),
                [[str(k), int(v)] for k, v in s[1]],
                [[str(k), int(v)] for k, v in s[2]],
                float(s[3]),
            ]
            for s in body.get("samples", [])
        ]
        self._memo: Dict[Tuple, float] = {
            (
                (s[0], tuple((k, v) for k, v in s[1])),
                tuple((k, v) for k, v in s[2]),
            ): s[3]
            for s in self.samples
        }
        d = len(self.feature_names)
        if (
            self.mean.shape != (d,)
            or self.scale.shape != (d,)
            or self.xtx.shape != (d, d)
            or self.xty.shape != (d,)
        ):
            raise ValueError("ranker model arrays do not match feature_names")
        self._weights: Optional[np.ndarray] = None
        self._features: Dict[Tuple, Optional[List[float]]] = {}
        self._observed: set = set()
        self._fingerprint = _fingerprint(self.body())

    # -- serialization ---------------------------------------------------
    def body(self) -> Dict[str, Any]:
        """The canonical artifact body (JSON-ready, byte-deterministic)."""
        return {
            "version": MODEL_VERSION,
            "kernel": self.kernel_name,
            "machine": self.machine_name,
            "machine_spec": self.machine_spec,
            "seed": self.seed,
            "ridge_lambda": self.ridge_lambda,
            "params": list(self.params),
            "feature_names": list(self.feature_names),
            "mean": [float(v) for v in self.mean],
            "scale": [float(v) for v in self.scale],
            "xtx": [[float(v) for v in row] for row in self.xtx],
            "xty": [float(v) for v in self.xty],
            "rows": self.rows,
            "training": dict(self.training),
            "samples": [
                [s[0], [list(kv) for kv in s[1]], [list(kv) for kv in s[2]], s[3]]
                for s in self.samples
            ],
        }

    @property
    def fingerprint(self) -> str:
        """16-hex identity of the trained artifact (stable across refits)."""
        return self._fingerprint

    def clone(self) -> "LearnedRanker":
        """A fresh instance with the artifact's trained state (each search
        refits its own copy; the artifact itself is never mutated)."""
        clone = LearnedRanker(self.body())
        return clone

    # -- fitting ---------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            d = self.xty.shape[0]
            system = self.xtx + self.ridge_lambda * np.eye(d)
            self._weights = np.linalg.solve(system, self.xty)
        return self._weights

    def mismatch(
        self, kernel_name: str, machine: MachineSpec
    ) -> Optional[str]:
        """Why this model cannot rank for the given target (``None`` =
        it can).  A mismatch means *fail open*, never mis-rank."""
        if kernel_name != self.kernel_name:
            return (
                f"model trained for kernel {self.kernel_name!r}, "
                f"search targets {kernel_name!r}"
            )
        if machine.name != self.machine_name:
            return (
                f"model trained for machine {self.machine_name!r}, "
                f"search targets {machine.name!r}"
            )
        spec = _machine_spec_hash(machine)
        if self.machine_spec and spec != self.machine_spec:
            return (
                f"machine spec hash {spec} differs from the model's "
                f"{self.machine_spec} (same name, different spec)"
            )
        return None

    def _standardize(self, feats: Sequence[float]) -> np.ndarray:
        x = np.asarray(feats, dtype=np.float64)
        return (x - self.mean) / self.scale

    def _features_for(
        self,
        kernel: Kernel,
        variant: Variant,
        values: Mapping[str, int],
        problem: Mapping[str, int],
        machine: MachineSpec,
    ) -> Optional[List[float]]:
        key = (_values_key(variant.name, values), tuple(sorted(problem.items())))
        if key not in self._features:
            self._features[key] = _raw_features(
                kernel, variant, values, problem, machine, self.params
            )
        return self._features[key]

    def predict(
        self,
        kernel: Kernel,
        variant: Variant,
        values: Mapping[str, int],
        problem: Mapping[str, int],
        machine: MachineSpec,
    ) -> Optional[float]:
        """Predicted ``log(cycles)``; ``None`` = unscorable (fail open).

        A binding in the memo — trained on or observed in-search — is
        predicted at its *measured* value; the regression only speaks
        for bindings the model has never measured.
        """
        hit = self.memoized(variant, values, problem)
        if hit is not None:
            return hit
        feats = self._features_for(kernel, variant, values, problem, machine)
        if feats is None:
            return None
        return float(self._standardize(feats) @ self.weights)

    def memoized(
        self,
        variant: Variant,
        values: Mapping[str, int],
        problem: Mapping[str, int],
    ) -> Optional[float]:
        """The binding's *measured* ``log(cycles)`` if the model has seen
        it (training or in-search observation), else ``None``.  Callers
        use this to tell an exact prediction from a regressed one — an
        exact one needs no confidence margin and no exploration."""
        return self._memo.get(
            (
                _values_key(variant.name, values),
                tuple(sorted((str(k), int(v)) for k, v in problem.items())),
            )
        )

    def observe(
        self,
        kernel: Kernel,
        variant: Variant,
        values: Mapping[str, int],
        problem: Mapping[str, int],
        machine: MachineSpec,
        cycles: float,
    ) -> None:
        """Active learning: fold one fresh measurement into the fit.

        A rank-1 update of the sufficient statistics plus a lazy
        re-solve — exact ridge on the union of training and observed
        points.  Deduplicated by binding, so re-measuring a memoized
        point (or observing at any ``-j``) never double-counts.
        """
        if not math.isfinite(cycles) or cycles <= 0:
            return
        key = _values_key(variant.name, values)
        if key in self._observed:
            return
        feats = self._features_for(kernel, variant, values, problem, machine)
        if feats is None:
            return
        self._observed.add(key)
        x = self._standardize(feats)
        y = math.log(cycles)
        self.xtx = self.xtx + np.outer(x, x)
        self.xty = self.xty + x * y
        self._weights = None
        values_items = sorted((str(k), int(v)) for k, v in values.items())
        problem_items = sorted((str(k), int(v)) for k, v in problem.items())
        memo_key = (
            (variant.name, tuple(values_items)),
            tuple(problem_items),
        )
        if memo_key not in self._memo:
            self._memo[memo_key] = y
            self.samples.append(
                [
                    variant.name,
                    [list(kv) for kv in values_items],
                    [list(kv) for kv in problem_items],
                    y,
                ]
            )


def _fingerprint(body: Mapping[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _training_samples(
    rows: Sequence[Mapping[str, Any]],
    kernel: Kernel,
    machine: MachineSpec,
    variants: Mapping[str, Variant],
    spec: str,
) -> List[Tuple[Variant, Dict[str, int], Dict[str, int], float]]:
    """Usable (variant, values, problem, cycles) samples from corpus rows.

    Pure-tiling measured points of the target kernel/machine only,
    deduplicated by binding (first occurrence wins — rows are in
    deterministic corpus order).  Rows carrying a ``machine_spec``
    column (schema >= 1.2 traces) must match the target's spec hash;
    legacy rows without one are trusted on the machine name.
    """
    samples: List[Tuple[Variant, Dict[str, int], Dict[str, int], float]] = []
    seen = set()
    for row in rows:
        if row.get("kernel") != kernel.name:
            continue
        if row.get("machine") != machine.name:
            continue
        row_spec = row.get("machine_spec") or ""
        if row_spec and row_spec != spec:
            continue
        if row.get("status") != "ok" or row.get("cycles") is None:
            continue
        if row.get("prefetch") or row.get("pads"):
            continue
        variant = variants.get(row.get("variant", ""))
        if variant is None:
            continue
        values = {str(k): int(v) for k, v in (row.get("values") or {}).items()}
        key = _values_key(variant.name, values)
        if key in seen:
            continue
        seen.add(key)
        problem = {str(k): int(v) for k, v in (row.get("problem") or {}).items()}
        samples.append((variant, values, problem, float(row["cycles"])))
    return samples


def train_ranker(
    rows: Sequence[Mapping[str, Any]],
    kernel_name: str,
    machine_name: str,
    seed: int = 0,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    machine: Optional[MachineSpec] = None,
) -> LearnedRanker:
    """Fit a ranker on flattened corpus rows (seeded, deterministic).

    The same rows and seed produce a byte-identical artifact body: the
    design matrix is assembled in corpus row order, standardization and
    the ridge solve are pure float64 arithmetic, and the seed is part of
    the body (it drives the *search-side* exploration sampling, recorded
    here so an artifact names the whole sampling behaviour).

    ``machine`` bypasses the registry lookup for specs that have no
    registered name (a serve request carrying an inline spec dict);
    ``machine_name`` must still match the rows' ``machine`` column.
    """
    from repro.core import derive_variants
    from repro.kernels import get_kernel
    from repro.machines import get_machine

    kernel = get_kernel(kernel_name)
    if machine is None:
        machine = get_machine(machine_name)
    spec = _machine_spec_hash(machine)
    variants = {v.name: v for v in derive_variants(kernel, machine)}
    samples = _training_samples(rows, kernel, machine, variants, spec)

    params = sorted(
        {
            p
            for variant, _, _, _ in samples
            for p in variant.param_names
        }
    )
    levels = len(machine.caches)
    names = _feature_names(params, levels)
    design: List[List[float]] = []
    targets: List[float] = []
    memo_samples: List[List[Any]] = []
    for variant, values, problem, cycles in samples:
        if cycles <= 0:
            continue
        feats = _raw_features(kernel, variant, values, problem, machine, params)
        if feats is None:
            continue
        design.append(feats)
        targets.append(math.log(cycles))
        memo_samples.append(
            [
                variant.name,
                [[k, int(v)] for k, v in sorted(values.items())],
                [[k, int(v)] for k, v in sorted(problem.items())],
                math.log(cycles),
            ]
        )
    if len(design) < MIN_TRAINING_ROWS:
        raise TrainingError(
            f"only {len(design)} usable training rows for {kernel.name} @ "
            f"{machine.name} (need >= {MIN_TRAINING_ROWS}); ingest more "
            f"traces with 'repro corpus ingest'"
        )

    x = np.asarray(design, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    # the bias column (and any constant feature) stays as-is
    mean[scale == 0.0] = 0.0
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    xtx = xs.T @ xs
    xty = xs.T @ y

    body = {
        "version": MODEL_VERSION,
        "kernel": kernel.name,
        "machine": machine.name,
        "machine_spec": spec,
        "seed": int(seed),
        "ridge_lambda": float(ridge_lambda),
        "params": params,
        "feature_names": names,
        "mean": [float(v) for v in mean],
        "scale": [float(v) for v in scale],
        "xtx": [[float(v) for v in row] for row in xtx],
        "xty": [float(v) for v in xty],
        "rows": len(design),
        "training": {},
        "samples": memo_samples,
    }
    ranker = LearnedRanker(body)
    predicted = xs @ ranker.weights
    residual = predicted - y
    rho = spearman([float(p) for p in predicted], [float(t) for t in y])
    ranker.training = {
        "rmse_log_cycles": float(np.sqrt(np.mean(residual**2))),
        "spearman": None if rho is None else float(rho),
    }
    # the fingerprint names the complete body, training metadata included
    ranker._fingerprint = _fingerprint(ranker.body())
    return ranker


def evaluate_ranker(
    ranker: LearnedRanker, rows: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Score a trained ranker against flattened rows (held-out or not).

    Returns rank correlation and log-space error over the unique
    measured pure-tiling points (``points``; ``scored`` of them had a
    prediction); this is ``repro model eval``, the model-accuracy
    report.  Scores the *operational*
    predictor, memo included: rows the model was trained on score
    exactly; the ``training`` metrics on the artifact are the
    regression-only (generalization) figures.
    """
    from repro.core import derive_variants
    from repro.kernels import get_kernel
    from repro.machines import get_machine

    kernel = get_kernel(ranker.kernel_name)
    machine = get_machine(ranker.machine_name)
    variants = {v.name: v for v in derive_variants(kernel, machine)}
    spec = _machine_spec_hash(machine)
    samples = _training_samples(rows, kernel, machine, variants, spec)
    predicted: List[float] = []
    measured: List[float] = []
    for variant, values, problem, cycles in samples:
        if cycles <= 0:
            continue
        score = ranker.predict(kernel, variant, values, problem, machine)
        if score is None:
            continue
        predicted.append(score)
        measured.append(math.log(cycles))
    errors = [abs(p - m) for p, m in zip(predicted, measured)]
    rho = spearman(predicted, measured)
    return {
        "points": len(samples),
        "scored": len(predicted),
        "spearman": rho,
        "mae_log_cycles": (sum(errors) / len(errors)) if errors else None,
    }


def save_ranker(path: str, ranker: LearnedRanker) -> None:
    """Persist the artifact as a sealed, checksummed record."""
    import os

    from repro.storage import write_sealed

    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_sealed(str(path), MODEL_RECORD_KIND, ranker.body(), label="ranker-model")


def load_ranker(path: str) -> LearnedRanker:
    """Load and verify a sealed model artifact.

    Raises ``OSError`` when the file is missing/unreadable and
    :class:`repro.storage.RecordError` when the seal fails — a corrupt
    or truncated artifact never serves ranks.
    """
    from repro.storage import read_sealed

    return LearnedRanker(read_sealed(str(path), MODEL_RECORD_KIND))
