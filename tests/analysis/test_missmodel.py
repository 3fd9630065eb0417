"""Static miss-model tests (the motivation experiment's substrate)."""

import random
import sys
import threading
from dataclasses import replace
from math import prod

import pytest

from repro.analysis.footprint import footprint_elems
from repro.analysis import missmodel
from repro.analysis.missmodel import estimate_misses
from repro.analysis.reuse import analyze_reuse
from repro.analysis.surrogate import Surrogate
from repro.core.derive import derive_variants
from repro.core.variants import Variant, instantiate, instantiate_base
from repro.frontend import parse_kernel
from repro.ir.nest import array_refs, find_loop, loop_order, walk_loops
from repro.kernels import KERNELS, get_kernel, matmul, matvec
from repro.machines import MACHINES, get_machine
from repro.sim import execute
from repro.transforms import TransformError

from tests.sim.test_nest_fuzz import generate_nest

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


def oracle_trip_counts(kernel, loops, params):
    """Each loop's trip count at the first iteration of its enclosing
    loops, the loop found by name."""
    env, trips = dict(params), {}
    for var in loops:
        loop = find_loop(kernel.body, var)
        trips[var] = max(0, loop.trip_count(env))
        env[var] = int(loop.lower.evaluate(env))
    return trips


def symbolic_estimate(kernel, params, machine):
    """The miss model as a symbolic footprint per (ref, loop prefix, level)
    plus list-based reuse membership, analysed afresh on every call: the
    oracle for the numeric model and its per-shape memo."""
    loops = loop_order(kernel)
    summary = analyze_reuse(kernel, machine.l1.line_size)
    trips = oracle_trip_counts(kernel, loops, params)
    refs = list(dict.fromkeys(ref for ref, _ in array_refs(kernel.body)))
    total_iterations = prod(max(1, trips[v]) for v in loops)
    listed = {
        (var, spatial): _listed(summary, var, spatial)
        for var in loops
        for spatial in (False, True)
    }
    footprints = {}

    def footprint(ref, inner):
        if (ref, inner) not in footprints:
            extents = {v: trips[v] for v in inner}
            expr = footprint_elems(kernel, [ref], extents, loops)
            footprints[ref, inner] = int(expr.evaluate(params))
        return footprints[ref, inner]

    per_level, per_ref = [], {}
    for cache in machine.caches:
        level_total = 0
        for ref in refs:
            element = kernel.array(ref.array).element_size
            capacity_elems = max(1, cache.capacity // element)
            line_elems = max(1, cache.line_size // element)
            reuse_factor = 1.0
            inner = ()
            for var in reversed(loops):
                inner += (var,)
                if footprint(ref, inner) > capacity_elems:
                    break
                if ref in listed[var, False]:
                    reuse_factor *= max(1, trips[var])
                elif ref in listed[var, True]:
                    reuse_factor *= line_elems
            misses = int(total_iterations / max(1.0, reuse_factor))
            touched = footprint(ref, tuple(loops))
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


# -- the per-shape memo against the oracle ----------------------------------

#: (tile size, unroll factor) bindings every derived variant is built at
MEMO_BINDINGS = tuple((tile, unroll) for unroll in (1, 2, 3) for tile in (3, 4))
MEMO_MACHINES = ("sgi", "sun")


def _clear_shapes():
    with missmodel._SHAPES_LOCK:
        missmodel._SHAPES.clear()


def _estimate(kernel, params, machine):
    est = estimate_misses(kernel, params, machine)
    return est.per_level, dict(est.per_ref)


def _memo_cases(kernel, sizes):
    """(label, IR, problem, machine) for ``kernel`` itself and for every
    derived variant at :data:`MEMO_BINDINGS`, each at both problem
    ``sizes``; a nest with a stepped loop has no variants."""
    stepped = any(loop.step != 1 for loop in walk_loops(kernel.body))
    for mname in MEMO_MACHINES:
        machine = get_machine(mname)
        for problem in sizes:
            yield f"{kernel.name}/{mname}/source/{problem}", kernel, problem, machine
        if stepped:
            continue
        for variant in derive_variants(kernel, machine):
            tiles = {p for _, p in variant.tiles}
            for tile, unroll in MEMO_BINDINGS:
                values = {p: tile if p in tiles else unroll for p in variant.param_names}
                try:
                    inst = instantiate_base(kernel, variant, values, machine)
                except TransformError:
                    continue
                for problem in sizes:
                    label = f"{kernel.name}/{mname}/{variant.name}/{values}/{problem}"
                    yield label, inst, problem, machine


def assert_memo_matches_oracle(kernel, sizes):
    """Each case equals the symbolic oracle cold (memo cleared) and warm
    (cases in order, so tile sizes, problem sizes and machines after the
    first share a shape the memo already holds)."""
    cases = list(_memo_cases(kernel, sizes))
    want = {}
    for label, inst, problem, machine in cases:
        _clear_shapes()
        want[label] = symbolic_estimate(inst, problem, machine)
        assert _estimate(inst, problem, machine) == want[label], ("cold", label)
    _clear_shapes()
    for label, inst, problem, machine in cases:
        assert _estimate(inst, problem, machine) == want[label], ("warm", label)
    assert len(missmodel._SHAPES) < len(cases)


def assert_nest_model_matches_oracle(seed):
    text, params = generate_nest(seed)
    assert_memo_matches_oracle(parse_kernel(text), ({"N": params["N"]}, {"N": 40}))


@pytest.mark.parametrize("seed", range(40))
def test_generated_nest_model_matches_oracle(seed):
    assert_nest_model_matches_oracle(seed)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_paper_kernel_model_matches_oracle(name):
    kernel = get_kernel(name)
    sizes = ({"N": 7, "F": 3}, {"N": 40, "F": 5})
    assert_memo_matches_oracle(kernel, [{p: s[p] for p in kernel.params} for s in sizes])


def test_line_and_element_sizes_are_part_of_the_shape():
    """Every registered machine has a 32-byte L1 line, so a shape seen on
    one must not be reused for a 16- or 64-byte line, nor for the same
    accesses over arrays of another element size."""
    base = instantiate(
        matmul(), derive_variants(matmul(), SGI)[0],
        {"TI": 4, "TJ": 4, "TK": 4, "UI": 2, "UJ": 2, "UK": 2}, SGI,
    )
    singles = replace(base, arrays=tuple(replace(d, element_size=4) for d in base.arrays))
    l1, *rest = SGI.caches
    machines = [SGI] + [
        replace(SGI, caches=(replace(l1, line_size=line), *rest)) for line in (16, 64)
    ]
    cases = [(kernel, m) for kernel in (base, singles) for m in machines]
    _clear_shapes()
    for kernel, machine in cases:
        want = symbolic_estimate(kernel, {"N": 24}, machine)
        assert _estimate(kernel, {"N": 24}, machine) == want, (kernel.arrays[0], machine.l1)
    assert len(missmodel._SHAPES) == len(cases)


def _scored_cases():
    """Bindings of mm and stencil2d spanning a dozen shapes or more."""
    cases = []
    for name in ("mm", "stencil2d"):
        kernel = get_kernel(name)
        sizes = [{p: 12 for p in kernel.params}, {p: 20 for p in kernel.params}]
        cases.extend(
            (inst, problem, machine)
            for _, inst, problem, machine in _memo_cases(kernel, sizes)
        )
    return cases


def _shape_key(case):
    kernel, _, machine = case
    path, refs, writes = missmodel._nest(kernel)
    return tuple(loop.var for loop in path), refs, writes, machine.l1.line_size


def test_memo_never_exceeds_its_cap(monkeypatch):
    cases = _scored_cases()
    _clear_shapes()
    want = [_estimate(*case) for case in cases]
    monkeypatch.setattr(missmodel, "_SHAPE_CAP", 3)
    _clear_shapes()
    for case, expected in zip(cases, want):
        assert _estimate(*case) == expected
        assert len(missmodel._SHAPES) <= 3
    assert len(missmodel._SHAPES) == 3
    assert len({_shape_key(case) for case in cases}) > 12


def test_threads_scoring_at_once_get_the_serial_results(monkeypatch):
    """Four threads score the same bindings, each in its own order, into
    a memo small enough that they evict each other's shapes."""
    cases = _scored_cases()
    _clear_shapes()
    want = [_estimate(*case) for case in cases]
    monkeypatch.setattr(missmodel, "_SHAPE_CAP", 4)
    _clear_shapes()
    start = threading.Barrier(4)
    got = [None] * 4
    errors = []

    def score(worker):
        order = list(range(len(cases)))
        random.Random(worker).shuffle(order)
        try:
            start.wait()
            results = {i: _estimate(*cases[i]) for i in order}
            got[worker] = [results[i] for i in range(len(cases))]
        except Exception as exc:  # reported below: a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=score, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert got == [want] * 4
    assert len(missmodel._SHAPES) <= 4
