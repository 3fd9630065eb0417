"""Static miss-model tests (the motivation experiment's substrate)."""

import random
from math import prod

import pytest

from repro.analysis.footprint import footprint_elems
from repro.analysis.missmodel import _trip_counts, estimate_misses
from repro.analysis.reuse import analyze_reuse
from repro.analysis.surrogate import Surrogate
from repro.core.derive import derive_variants
from repro.core.variants import Variant, instantiate
from repro.frontend import parse_kernel
from repro.ir.nest import array_refs, loop_order
from repro.kernels import KERNELS, get_kernel, matmul, matvec
from repro.machines import MACHINES, get_machine
from repro.sim import execute

SGI = get_machine("sgi")


class TestMissModel:
    def test_accurate_in_smooth_regime(self):
        """At a non-pathological size with arrays exceeding L1, the model
        is within ~20% of simulation for both levels."""
        n = 24
        est = estimate_misses(matmul(), {"N": n}, SGI)
        got = execute(matmul(), {"N": n}, SGI)
        assert est.l1 == pytest.approx(got.l1_misses, rel=0.2)
        assert est.l2 == pytest.approx(got.l2_misses, rel=0.2)

    def test_misses_at_least_compulsory(self):
        est = estimate_misses(matmul(), {"N": 8}, SGI)
        # 3 arrays x 64 elements / 4 per line = 48 lines minimum.
        assert est.l1 >= 48
        assert est.l2 >= 3 * 64 * 8 // 64

    def test_l2_never_exceeds_l1(self):
        for n in (8, 16, 32, 48):
            est = estimate_misses(matmul(), {"N": n}, SGI)
            assert est.l2 <= est.l1

    def test_misses_grow_with_size(self):
        small = estimate_misses(matmul(), {"N": 16}, SGI)
        large = estimate_misses(matmul(), {"N": 48}, SGI)
        assert large.l1 > small.l1

    def test_underestimates_at_conflict_pathology(self):
        """The model cannot see conflicts: at a power-of-two size where
        simulation shows conflict misses, prediction falls short.  This IS
        the paper's argument for empirical feedback."""
        n = 16  # columns 128B apart in a 1KB-span L1: measured > predicted
        est = estimate_misses(matmul(), {"N": n}, SGI)
        got = execute(matmul(), {"N": n}, SGI)
        assert est.l1 < got.l1_misses

    def test_per_ref_breakdown_sums_to_total(self):
        est = estimate_misses(matmul(), {"N": 20}, SGI)
        for level in range(2):
            assert sum(v[level] for v in est.per_ref.values()) == est.per_level[level]

    def test_matvec_model(self):
        est = estimate_misses(matvec(), {"N": 64}, SGI)
        got = execute(matvec(), {"N": 64}, SGI)
        assert est.l1 == pytest.approx(got.l1_misses, rel=0.35)


class TestMotivationExperiment:
    def test_runs_and_reports(self):
        from repro.experiments.model_vs_empirical import run_miss_model_accuracy

        rows = run_miss_model_accuracy("sgi", sizes=(8, 24))
        assert len(rows) == 2
        assert {"N", "L1 predicted", "L1 measured"} <= set(rows[0])


# -- numeric model vs the symbolic oracle -----------------------------------


def _listed(summary, loop, spatial):
    """The reuse lists as first built: self reuse in ref order, then each
    group partner not yet listed, with plain list membership."""
    found = [
        info.ref for info in summary.refs
        if (info.has_spatial(loop) if spatial else info.has_temporal(loop))
    ]
    for group in summary.groups:
        if group.loop == loop and group.spatial == spatial:
            for ref in (group.ref_a, group.ref_b):
                if ref not in found:
                    found.append(ref)
    return found


def symbolic_estimate(kernel, params, machine):
    """The miss model as a symbolic footprint per (ref, loop prefix, level)
    plus list-based reuse membership: the oracle for the numeric model."""
    loops = loop_order(kernel)
    summary = analyze_reuse(kernel, machine.l1.line_size)
    trips = _trip_counts(kernel, loops, params)
    refs = list(dict.fromkeys(ref for ref, _ in array_refs(kernel.body)))
    total_iterations = prod(max(1, trips[v]) for v in loops)
    per_level, per_ref = [], {}
    for cache in machine.caches:
        level_total = 0
        for ref in refs:
            element = kernel.array(ref.array).element_size
            capacity_elems = max(1, cache.capacity // element)
            line_elems = max(1, cache.line_size // element)
            reuse_factor = 1.0
            inner = []
            for var in reversed(loops):
                inner.append(var)
                extents = {v: trips[v] for v in inner}
                fp = int(footprint_elems(kernel, [ref], extents, loops).evaluate(params))
                if fp > capacity_elems:
                    break
                if ref in _listed(summary, var, spatial=False):
                    reuse_factor *= max(1, trips[var])
                elif ref in _listed(summary, var, spatial=True):
                    reuse_factor *= line_elems
            misses = int(total_iterations / max(1.0, reuse_factor))
            extents_all = {v: trips[v] for v in loops}
            touched = int(
                footprint_elems(kernel, [ref], extents_all, loops).evaluate(params)
            )
            misses = max(misses, max(1, touched // line_elems))
            level_total += misses
            per_ref.setdefault(str(ref), []).append(misses)
        per_level.append(level_total)
    return tuple(per_level), {k: tuple(v) for k, v in per_ref.items()}


def _seeded_candidates(seed=14, per_pair=3):
    """Instantiated variants of every kernel on every machine, at seeded
    parameter bindings (small unrolls keep the oracle quick)."""
    rng = random.Random(seed)
    for kname in sorted(KERNELS):
        kernel = get_kernel(kname)
        for mname in sorted(MACHINES):
            machine = get_machine(mname)
            variants = derive_variants(kernel, machine)
            problem = {p: rng.choice([10, 16, 24]) for p in kernel.params}
            built = 0
            for _ in range(4 * per_pair):
                if built == per_pair:
                    break
                variant = rng.choice(variants)
                values = {p: rng.choice([4, 8, 16]) for _, p in variant.tiles}
                values.update({p: rng.choice([1, 2, 4]) for _, p in variant.unrolls})
                try:
                    inst = instantiate(kernel, variant, values, machine)
                except Exception:
                    continue
                built += 1
                yield f"{kname}/{mname}/{variant.name}/{values}", inst, problem, machine


class TestNumericModelParity:
    def test_matches_symbolic_oracle_on_instantiated_variants(self):
        seen = set()
        for label, inst, problem, machine in _seeded_candidates():
            est = estimate_misses(inst, problem, machine)
            per_level, per_ref = symbolic_estimate(inst, problem, machine)
            assert est.per_level == per_level, label
            assert dict(est.per_ref) == per_ref, label
            seen.add(label.split("/")[0] + "/" + label.split("/")[1])
        assert len(seen) == len(KERNELS) * len(MACHINES)

    def test_original_kernels_match_oracle(self):
        for kname in sorted(KERNELS):
            kernel = get_kernel(kname)
            for mname in sorted(MACHINES):
                machine = get_machine(mname)
                problem = {p: 20 for p in kernel.params}
                est = estimate_misses(kernel, problem, machine)
                assert (est.per_level, dict(est.per_ref)) == symbolic_estimate(
                    kernel, problem, machine
                ), (kname, mname)

    def test_trip_count_zero_loop(self):
        kernel = parse_kernel(
            """
kernel z(M, N):
    array A[M, N], B[M]
    do J = 1, N:
        do I = 1, M:
            B[I] = B[I] + A[I, J]
"""
        )
        for params in ({"M": 0, "N": 8}, {"M": 8, "N": 0}, {"M": 0, "N": 0}):
            est = estimate_misses(kernel, params, SGI)
            assert (est.per_level, dict(est.per_ref)) == symbolic_estimate(
                kernel, params, SGI
            ), params

    def test_non_affine_ref_raises_and_surrogate_fails_open(self):
        kernel = parse_kernel(
            """
kernel nl(N):
    array A[N, N], B[N]
    do J = 1, N:
        do I = 1, N:
            B[I] = B[I] + A[I*J, J]
"""
        )
        with pytest.raises(ValueError):
            estimate_misses(kernel, {"N": 8}, SGI)
        variant = Variant(
            name="plain", kernel_name="nl", point_order=("J", "I"),
            control_order=(), tiles=(), unrolls=(), register_loop="I",
            copies=(), levels=(), constraints=(),
        )
        assert Surrogate(kernel, SGI, {"N": 8}).score(variant, {}) is None
