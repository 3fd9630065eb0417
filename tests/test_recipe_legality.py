"""Differential oracle for phase 1: a derived variant is refused or correct.

Legality is decided once per recipe, on the source nest
(:func:`~repro.analysis.dependence.recipe_refusal`), and the transforms
are mechanical.  For ``generate_nest`` seeds and the paper's kernels,
every derived variant at two small bindings (tiles 3/4, unrolls 2/3) is
either refused by ``instantiate_base`` or computes, under the IR
interpreter, what the untransformed nest computes (``np.allclose``:
reassociated reductions may round differently).

The verdicts are also compared with the per-build checks they replaced:
the dependence bookkeeping of those checks runs here, as an oracle, on
each transform's input.  The recipes those checks let through are pinned
as refusals.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis.dependence import (
    Dependence,
    _distance_vectors,
    _mixes_scalars,
    compute_dependences,
    permutation_legal,
    recipe_refusal,
    tiling_legal,
    unroll_and_jam_legal,
)
from repro.codegen.interp import allocate_arrays, run_kernel
from repro.core.derive import derive_variants
from repro.core.variants import (
    CopyPlan,
    LevelPlan,
    Variant,
    control_name,
    instantiate_base,
)
from repro.frontend.parser import parse_kernel
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.ir.nest import Kernel, affine_subscripts, array_refs, find_loop, loop_order, walk_loops
from repro.kernels import KERNELS
from repro.machines import get_machine
from repro.transforms import TileSpec, TransformError, tile_nest, unroll_and_jam

from tests.sim.test_nest_fuzz import generate_nest

MACHINES = ("sgi", "sun")
#: (tile size, unroll factor) bindings every derived variant is built at
BINDINGS = ((3, 2), (4, 3))
PAPER_PARAMS = {"N": 7, "F": 3}
CONSTS = {"c": 0.5}


def _values(variant: Variant, tile: int, unroll: int) -> Dict[str, int]:
    tiles = {param for _, param in variant.tiles}
    return {p: tile if p in tiles else unroll for p in variant.param_names}


def _run(kernel: Kernel, params, arrays):
    return run_kernel(kernel, params, arrays, CONSTS)


def assert_variants_refused_or_correct(kernel: Kernel, params) -> List[str]:
    """Build every derived variant of ``kernel`` at :data:`BINDINGS` on
    both machines; each build is refused or matches the interpreter.
    Returns the refusals."""
    arrays = allocate_arrays(kernel, params, seed=1)
    want = _run(kernel, params, arrays)
    refusals = []
    for name in MACHINES:
        machine = get_machine(name)
        for variant in derive_variants(kernel, machine):
            for tile, unroll in BINDINGS:
                try:
                    built = instantiate_base(
                        kernel, variant, _values(variant, tile, unroll), machine
                    )
                except TransformError as exc:
                    refusals.append(str(exc))
                    continue
                got = _run(built, params, arrays)
                for decl in kernel.arrays:
                    assert np.allclose(got[decl.name], want[decl.name]), (
                        name, variant.name, tile, unroll, decl.name,
                    )
    return refusals


# -- the per-build checks the recipe check replaced, kept as the oracle ------


def per_build_dependences(kernel: Kernel) -> List[Dependence]:
    """Dependences as the per-build checks computed them: each pair of
    accesses in textual order, both kinds for a read/write pair, and a
    reduction wherever the two subscripts are equal."""
    loops = loop_order(kernel)
    accesses = list(array_refs(kernel.body))
    deps, seen = [], set()
    for idx1, (ref1, w1) in enumerate(accesses):
        for idx2 in range(idx1, len(accesses)):
            ref2, w2 = accesses[idx2]
            if ref1.array != ref2.array or not (w1 or w2):
                continue
            kinds = ("output",) if w1 and w2 else ("flow", "anti")
            vectors = _distance_vectors(
                affine_subscripts(ref1, loops), affine_subscripts(ref2, loops), len(loops)
            )
            for entries in vectors:
                if entries is None or (idx1 == idx2 and all(e == 0 for e in entries)):
                    continue
                for kind in kinds:
                    key = (ref1, ref2, kind, entries)
                    if key not in seen:
                        seen.add(key)
                        deps.append(
                            Dependence(ref1, ref2, kind, loops, entries, (0, 0), ref1 == ref2)
                        )
    return deps


def per_build_refusal(kernel: Kernel, variant: Variant, values):
    """The refusal of the per-build checks for a copy-free ``variant``:
    tiling legality on the source nest, then each unroll-and-jam judged
    on its own input IR, the one earlier jams had already unrolled."""
    deps = per_build_dependences(kernel)
    band = variant.control_order
    order = tuple(band) + variant.point_order
    if not tiling_legal(deps, band, True) or not permutation_legal(deps, order, True):
        return "tiling"
    specs = [TileSpec(loop, control_name(loop), values[p]) for loop, p in variant.tiles]
    try:
        ir = tile_nest(
            kernel,
            specs,
            control_order=[control_name(loop) for loop in band],
            point_order=list(variant.point_order),
        )
        for loop in reversed(variant.point_order):
            factor = values.get(variant.unroll_map.get(loop), 1)
            if factor == 1:
                continue
            if not unroll_and_jam_legal(per_build_dependences(ir), loop, True):
                return f"jam {loop}"
            if _mixes_scalars(find_loop(ir.body, loop).body, loop):
                return f"scalars {loop}"
            ir = unroll_and_jam(ir, loop, factor)
    except TransformError as exc:
        return str(exc)
    return None


def _verdicts(kernel: Kernel):
    """(variant, values, machine, new refusal, per-build refusal) for each
    copy-free derived variant at each binding."""
    for name in MACHINES:
        machine = get_machine(name)
        for variant in derive_variants(kernel, machine):
            if variant.copies:
                continue
            for tile, unroll in BINDINGS:
                values = _values(variant, tile, unroll)
                try:
                    instantiate_base(kernel, variant, values, machine)
                    new = None
                except TransformError as exc:
                    new = str(exc)
                yield variant, values, machine, new, per_build_refusal(kernel, variant, values)


# -- the oracle ---------------------------------------------------------------


def _stepped_loops(kernel: Kernel) -> List[str]:
    return [loop.var for loop in walk_loops(kernel.body) if loop.step != 1]


def assert_generated_nest_sound(seed: int) -> None:
    """Phase 1 refuses a nest with a stepped loop, naming the loop; every
    variant of any other nest is refused or correct, and each of its
    unroll loops can be jammed alone."""
    text, params = generate_nest(seed)
    kernel = parse_kernel(text)
    stepped = _stepped_loops(kernel)
    if stepped:
        for name in MACHINES:
            with pytest.raises(ValueError, match=f"loop {stepped[0]} has step 2"):
                derive_variants(kernel, get_machine(name))
        return
    assert_variants_refused_or_correct(kernel, params)
    assert_unrolls_jam_alone(kernel)


def assert_unrolls_jam_alone(kernel: Kernel) -> None:
    """Each unroll loop of a derived variant whose recipe is legal can be
    jammed alone, and the register-file constraint and the register
    level's parameters name exactly the unroll parameters."""
    for name in MACHINES:
        for variant in derive_variants(kernel, get_machine(name)):
            band, order = variant.control_order, variant.point_order
            params = {param for _, param in variant.unrolls}
            if recipe_refusal(kernel, band, order, (), True) is not None:
                continue
            for loop, _ in variant.unrolls:
                assert recipe_refusal(kernel, band, order, (loop,), True) is None, (
                    name, variant.name, loop,
                )
            register = variant.constraints[0]
            assert "register file" in register.label
            assert register.expr.free_vars() <= params, (name, variant.name)
            assert set(variant.levels[0].params) == params, (name, variant.name)


@pytest.mark.parametrize("seed", range(40))
def test_generated_nest_variants_are_refused_or_correct(seed):
    assert_generated_nest_sound(seed)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_paper_kernel_variants_are_accepted_and_correct(name):
    """Every variant of the paper's kernels is legal on its source nest
    with reassociation, so none is refused."""
    kernel = KERNELS[name]()
    params = {p: PAPER_PARAMS[p] for p in kernel.params}
    assert assert_variants_refused_or_correct(kernel, params) == []
    assert_unrolls_jam_alone(kernel)


def test_phase_1_refuses_a_stepped_nest():
    """Tiling and unroll-and-jam need step-1 loops, so phase 1 refuses
    the nest outright instead of deriving variants that can never build."""
    kernel = parse_kernel(
        """
kernel stepped(N):
    array A[N, N], B[N]
    do J = 1, N, 2:
        do I = 1, N:
            B[I] = B[I] + A[I, J]
"""
    )
    for name in MACHINES:
        with pytest.raises(ValueError, match="stepped: loop J has step 2"):
            derive_variants(kernel, get_machine(name))


def test_phase_1_drops_a_jam_that_mixes_scalars():
    """Seed 31 computes ``t = A[I] * 2.0`` inside ``do J``: jamming I
    would let one copy read another copy's ``t``.  No variant unrolls I,
    none names ``UI``, and each builds with every unroll factor at 2."""
    text, params = generate_nest(31)
    kernel = parse_kernel(text)
    arrays = allocate_arrays(kernel, params, seed=1)
    want = _run(kernel, params, arrays)
    for name in MACHINES:
        machine = get_machine(name)
        variants = derive_variants(kernel, machine)
        assert variants
        for variant in variants:
            assert "I" not in variant.unroll_map, (name, variant.name)
            assert all("UI" not in str(c.expr) for c in variant.constraints)
            built = instantiate_base(kernel, variant, _values(variant, 3, 2), machine)
            got = _run(built, params, arrays)
            for decl in kernel.arrays:
                assert np.allclose(got[decl.name], want[decl.name]), (name, variant.name)


def test_verdicts_match_the_per_build_checks():
    """On copy-free variants the recipe check refuses exactly what the
    per-build checks refused for a single jam, and never refuses what
    they built.  With several jams a later one, judged on IR that an
    earlier jam had unrolled, could be refused there because the copies
    split a reduction's subscript, so it lost its waiver; the recipe
    check accepts those builds, and each one matches the interpreter."""
    cases = [(parse_kernel(text), params) for text, params in map(generate_nest, range(40))]
    cases = [(kernel, params) for kernel, params in cases if not _stepped_loops(kernel)]
    cases += [(KERNELS[name](), PAPER_PARAMS) for name in sorted(KERNELS)]
    for kernel, sizes in cases:
        params = {p: sizes[p] for p in kernel.params}
        arrays = allocate_arrays(kernel, params, seed=1)
        want = None
        for variant, values, machine, new, per_build in _verdicts(kernel):
            label = (kernel.name, variant.name, values, new, per_build)
            if new is not None or len(variant.unrolls) == 1:
                assert (new is None) == (per_build is None), label
                continue
            if per_build is None:
                continue
            want = want or _run(kernel, params, arrays)
            got = _run(instantiate_base(kernel, variant, values, machine), params, arrays)
            for decl in kernel.arrays:
                assert np.allclose(got[decl.name], want[decl.name]), label


# -- witnesses: recipes the per-build checks let through, jams judged together


def _recipe(unrolls, copies=(), tiles=(("I", "TI"),)) -> Variant:
    return Variant(
        name="v",
        kernel_name="witness",
        point_order=("I", "J"),
        control_order=tuple(loop for loop, _ in tiles),
        tiles=tiles,
        unrolls=unrolls,
        register_loop="J",
        copies=copies,
        levels=(LevelPlan("Reg", "J", (), "-", ()),),
        constraints=(),
    )


def _skewed_nest() -> Kernel:
    n = Var("N")
    i, j = Var("I"), Var("J")
    return B.kernel(
        "witness",
        params=("N",),
        arrays=(B.array("A", n + 1, n + 1), B.array("B", n)),
        body=B.loop(
            "I", 2, n,
            B.loop(
                "J", 1, n,
                B.assign(B.aref("A", i, j), B.read("A", i - 1, j + 1) + B.read("B", i)),
            ),
        ),
    )


@pytest.mark.parametrize("copies", [(), (CopyPlan("B", "P", ((0, "I"),), 1),)])
def test_copied_recipe_jam_is_refused(copies):
    """Jamming I reverses the (1, -1) dependence on A.  On copied IR the
    first nest path is the copy loop, so a check there saw no dependence
    over I and the build computed a wrong A; the recipe check refuses the
    recipe with and without the copy."""
    variant = _recipe((("I", "UI"),), copies)
    with pytest.raises(TransformError, match="unroll-and-jam of I reverses a dependence"):
        instantiate_base(_skewed_nest(), variant, {"TI": 4, "UI": 2})


def _array_temporary() -> Kernel:
    n = Var("N")
    i, j = Var("I"), Var("J")
    return B.kernel(
        "witness",
        params=("N",),
        arrays=(B.array("A", n), B.array("B", n), B.array("C", n), B.array("X", n)),
        body=B.loop(
            "I", 1, n,
            B.loop(
                "J", 1, n,
                B.assign(B.aref("X", j), B.read("A", i) * 2.0),
                B.assign(B.aref("C", j), B.read("C", j) + B.read("X", j) * B.read("B", i)),
            ),
        ),
    )


def _ordered_recipe(point_order, tiles, unrolls) -> Variant:
    return replace(
        _recipe(unrolls, tiles=tiles),
        point_order=point_order,
        register_loop=point_order[-1],
        levels=(LevelPlan("Reg", point_order[-1], (), "-", ()),),
    )


def _diagonal_nest() -> Kernel:
    """``A[I, J, K]`` reads ``A[I - 1, J - 1, K + 1]``: flow (1, 1, -1)."""
    n = Var("N")
    i, j, k = Var("I"), Var("J"), Var("K")
    return B.kernel(
        "witness",
        params=("N",),
        arrays=(B.array("A", n + 1, n + 1, n + 1),),
        body=B.loop(
            "I", 2, n,
            B.loop(
                "J", 2, n,
                B.loop(
                    "K", 1, n,
                    B.assign(B.aref("A", i, j, k), B.read("A", i - 1, j - 1, k + 1) * 0.5),
                ),
            ),
        ),
    )


def _assert_refused_or_correct(kernel: Kernel, variant: Variant, values) -> None:
    try:
        built = instantiate_base(kernel, variant, values)
    except TransformError:
        return
    params = {"N": 8}
    arrays = allocate_arrays(kernel, params, seed=1)
    want, got = _run(kernel, params, arrays), _run(built, params, arrays)
    for name in want:
        assert np.allclose(got[name], want[name]), name


def test_jams_are_judged_together():
    """Jamming I and J: the J jam alone sees the (1, 1, -1) dependence
    carried by I, and the I jam alone sees inner distances (1, -1).  With
    both jammed, source and sink can share a block of each, so K = k - 1
    of the sink's copy runs before K = k of the source's."""
    kernel = _diagonal_nest()
    variant = _ordered_recipe(("I", "J", "K"), (), (("I", "UI"), ("J", "UJ")))
    with pytest.raises(TransformError, match="unroll-and-jam of J reverses a dependence"):
        instantiate_base(kernel, variant, {"UI": 2, "UJ": 2})
    for values in ({"UI": 2, "UJ": 1}, {"UI": 1, "UJ": 2}, {"UI": 2, "UJ": 2}):
        _assert_refused_or_correct(kernel, variant, values)


def test_each_jam_alone_builds_at_factor_one_of_the_other():
    """A loop unrolled by 1 is not jammed, so each single jam of the
    diagonal nest builds and computes the nest's result."""
    kernel = _diagonal_nest()
    variant = _ordered_recipe(("I", "J", "K"), (), (("I", "UI"), ("J", "UJ")))
    for values in ({"UI": 2, "UJ": 1}, {"UI": 1, "UJ": 2}):
        instantiate_base(kernel, variant, values)
        _assert_refused_or_correct(kernel, variant, values)


def test_point_order_inside_a_tile_is_checked():
    """Tiling I with point order (K, I) runs K outside I within a tile,
    which reverses the (1, -1) dependence of ``A[I, K] = A[I - 1, K + 1]``
    between two rows of one tile; the band (I) alone is fully permutable
    and (I, K, I) reverses nothing."""
    n = Var("N")
    i, k = Var("I"), Var("K")
    kernel = B.kernel(
        "witness",
        params=("N",),
        arrays=(B.array("A", n + 1, n + 1),),
        body=B.loop(
            "I", 2, n,
            B.loop("K", 1, n, B.assign(B.aref("A", i, k), B.read("A", i - 1, k + 1) * 0.5)),
        ),
    )
    variant = _ordered_recipe(("K", "I"), (("I", "TI"),), ())
    with pytest.raises(TransformError, match=r"loop order \('K', 'I'\) reverses"):
        instantiate_base(kernel, variant, {"TI": 4})


def test_array_temporary_is_not_a_reduction():
    deps = compute_dependences(_array_temporary())
    on_x = [dep for dep in deps if dep.source.array == "X"]
    assert on_x and not any(dep.reduction for dep in on_x)
    assert all(dep.reduction for dep in deps if dep.source.array == "C")


def test_array_temporary_jam_is_refused():
    """Jamming I interleaves the copies statement by statement, so both
    ``C`` updates would read the last copy's ``X[J]``."""
    kernel = _array_temporary()
    variant = _recipe((("I", "UI"),), tiles=())
    with pytest.raises(TransformError, match="unroll-and-jam of I reverses a dependence"):
        instantiate_base(kernel, variant, {"UI": 2})
    _assert_refused_or_correct(kernel, variant, {"UI": 1})
    instantiate_base(kernel, variant, {"UI": 1})  # unrolled by 1: not jammed


def test_array_temporary_jam_of_the_inner_loop_is_accepted():
    kernel = _array_temporary()
    built = instantiate_base(kernel, _recipe((("J", "UJ"),), tiles=()), {"UJ": 2})
    params = {"N": 6}
    arrays = allocate_arrays(kernel, params, seed=1)
    want, got = _run(kernel, params, arrays), _run(built, params, arrays)
    for name in want:
        assert np.allclose(got[name], want[name]), name


#: seeds whose derived copy plans once redirected an offset or strided
#: reference outside the copied tile (the interpreter stopped on it)
COPY_OFFSET_SEEDS = (2, 4, 50, 56, 62, 82, 83, 123, 125, 128, 148, 155, 163, 165, 170)


@pytest.mark.parametrize("seed", COPY_OFFSET_SEEDS)
def test_copy_plans_index_each_dimension_by_its_point_loop(seed):
    kernel = parse_kernel(generate_nest(seed)[0])
    for name in MACHINES:
        for variant in derive_variants(kernel, get_machine(name)):
            for plan in variant.copies:
                for ref, _ in array_refs(kernel.body):
                    if ref.array == plan.array:
                        for dim, var in plan.dims:
                            assert ref.indices[dim] == Var(var), (name, variant.name, ref)


def test_copy_of_an_offset_reference_is_refused():
    """Seed 2 reads ``A[J + 3]``; a copy of ``A`` over the J tile would
    redirect it past the end of the copy."""
    kernel = parse_kernel(generate_nest(2)[0])
    variant = Variant(
        name="v",
        kernel_name=kernel.name,
        point_order=("I", "J"),
        control_order=("J",),
        tiles=(("J", "TJ"),),
        unrolls=(("I", "UI"),),
        register_loop="J",
        copies=(CopyPlan("A", "P", ((0, "J"),), 1),),
        levels=(),
        constraints=(),
    )
    with pytest.raises(TransformError, match="leaves the copied tile"):
        instantiate_base(kernel, variant, {"TJ": 3, "UI": 2})
