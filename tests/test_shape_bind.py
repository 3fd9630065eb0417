"""Bind oracle: a recipe shape built once, then bound, equals the
transform pipeline run with integer tile sizes.

:func:`repro.core.variants.instantiate_base` runs permute+tile → copy →
unroll-and-jam → scalar replacement once per recipe *shape* (kernel,
variant, unroll factors, copy pads), with every tile size the reserved
symbol :func:`~repro.core.variants.tile_symbol`, and binds each
candidate's sizes into the loop headers and copy-buffer shapes.  The
oracle, :func:`integer_pipeline`, is the same pipeline run with the
integers.  Pinned:

* a bound kernel ``==`` the oracle's and prints identically, for seeded
  bindings of every derived variant of every paper kernel and generated
  nest on both mini machines, and of the ATLAS skeletons (with and
  without copy); no tile symbol is left free in a loop bound, step or
  array shape;
* a binding shares every statement object with its shape;
* a zero tile size or unroll factor is refused with a cold and with a
  warm shape, and the engine reports such a point infeasible;
* the shape LRU stays at its cap, and threads binding one shape at once
  get the serial IR.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Mapping, Optional, Tuple

import pytest

import repro.core.variants as variants_module
from repro.analysis.dependence import recipe_refusal
from repro.baselines.atlas import _skeleton
from repro.core.derive import derive_variants
from repro.core.variants import (
    Variant,
    _conflict_pad,
    control_name,
    instantiate_base,
)
from repro.eval import EvalEngine
from repro.frontend.parser import parse_kernel
from repro.ir.expr import as_expr
from repro.ir.nest import Kernel, walk_loops, walk_statements
from repro.ir.printer import format_kernel
from repro.kernels import KERNELS, matmul
from repro.machines import MachineSpec, get_machine
from repro.transforms import (
    CopyDim,
    TileSpec,
    TransformError,
    apply_copy,
    scalar_replace,
    tile_nest,
    unroll_and_jam,
)

from tests.sim.test_nest_fuzz import generate_nest

MACHINES = (get_machine("sgi"), get_machine("sun"))
SGI = MACHINES[0]
#: 128 makes ``_conflict_pad`` pad a copy buffer on both mini machines
TILE_SIZES = (1, 2, 3, 4, 5, 8, 13, 16, 17, 32, 64, 128)
UNROLL_FACTORS = (1, 2, 3, 4)
#: seeded bindings checked per (variant, machine)
BINDINGS = 3


def integer_pipeline(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec],
) -> Kernel:
    """permute+tile → copy → unroll-and-jam → scalar replacement with
    integer tile sizes: what one binding of a shape must equal."""
    jams = [loop for loop, param in variant.unrolls if values[param] > 1]
    refusal = recipe_refusal(kernel, variant.control_order, variant.point_order, jams, True)
    if refusal is not None:
        raise TransformError(refusal)
    result = tile_nest(
        kernel,
        [TileSpec(loop, control_name(loop), values[p]) for loop, p in variant.tiles],
        control_order=[control_name(loop) for loop in variant.control_order],
        point_order=list(variant.point_order),
    )
    tile_map = variant.tile_map
    for plan in variant.copies:
        dims = [
            CopyDim(dim, point, control_name(point), values[tile_map[point]])
            for dim, point in plan.dims
        ]
        pad = _conflict_pad(values[tile_map[min(plan.dims)[1]]], machine)
        result = apply_copy(result, plan.array, plan.temp, dims, pad=pad)
    for loop in reversed(variant.point_order):
        param = variant.unroll_map.get(loop)
        if param is not None and values[param] > 1:
            result = unroll_and_jam(result, loop, values[param])
    return scalar_replace(result, variant.register_loop)


def free_tile_symbols(kernel: Kernel) -> set:
    """Tile symbols free in any loop bound, loop step or array shape."""
    names = set()
    for loop in walk_loops(kernel.body):
        names |= loop.lower.free_vars() | loop.upper.free_vars()
        names |= as_expr(loop.step).free_vars()
    for decl in kernel.arrays:
        for extent in decl.shape:
            names |= extent.free_vars()
    return {name for name in names if name.startswith("__T_")}


def _binding(variant: Variant, rng: random.Random) -> Dict[str, int]:
    tiles = {param for _, param in variant.tiles}
    return {
        p: rng.choice(TILE_SIZES if p in tiles else UNROLL_FACTORS)
        for p in variant.param_names
    }


def assert_binds_like_integers(
    kernel: Kernel,
    cases: Iterable[Tuple[Variant, MachineSpec]],
    rng: random.Random,
) -> int:
    """Each case at :data:`BINDINGS` seeded bindings, from an empty shape
    LRU: the binding equals :func:`integer_pipeline` (or both refuse with
    the same exception type), cold and warm.  Returns the bindings built."""
    variants_module.clear_base_cache()
    built = 0
    for variant, machine in cases:
        for _ in range(BINDINGS):
            values = _binding(variant, rng)
            label = (kernel.name, machine.name, variant.name, values)
            try:
                want = integer_pipeline(kernel, variant, values, machine)
            except (TransformError, KeyError) as exc:
                with pytest.raises(type(exc)):
                    instantiate_base(kernel, variant, values, machine)
                continue
            for _ in range(2):  # the first build of a shape is cold
                got = instantiate_base(kernel, variant, values, machine)
                assert got == want, label
                assert format_kernel(got) == format_kernel(want), label
                assert not free_tile_symbols(got), label
            built += 1
    return built


def _derived_cases(kernel: Kernel):
    for machine in MACHINES:
        for variant in derive_variants(kernel, machine):
            yield variant, machine


def assert_shape_bind_matches(seed: int) -> None:
    """Every derived variant of generated nest ``seed`` on both mini
    machines binds like the integer pipeline (a nest with a stepped loop
    has no variants)."""
    text, _ = generate_nest(seed)
    kernel = parse_kernel(text)
    if any(loop.step != 1 for loop in walk_loops(kernel.body)):
        return
    assert_binds_like_integers(kernel, _derived_cases(kernel), random.Random(seed))


@pytest.mark.parametrize("seed", range(40))
def test_generated_nest_binds_like_integers(seed):
    assert_shape_bind_matches(seed)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_paper_kernel_binds_like_integers(name):
    kernel = KERNELS[name]()
    assert assert_binds_like_integers(kernel, _derived_cases(kernel), random.Random(name)) > 0


@pytest.mark.parametrize("with_copy", [False, True])
def test_atlas_skeleton_binds_like_integers(with_copy):
    cases = [(_skeleton(with_copy), machine) for machine in MACHINES]
    assert assert_binds_like_integers(matmul(), cases, random.Random(7)) == 2 * BINDINGS


def test_the_shape_is_keyed_by_value_and_shares_its_statements():
    """A fresh but equal skeleton finds the shape; the binding holds the
    shape's statement objects, and the shape holds the tile symbol."""
    variants_module.clear_base_cache()
    values = {"NB": 16, "MU": 2, "NU": 2, "KU": 1}
    bound = instantiate_base(matmul(), _skeleton(True), values, SGI)
    instantiate_base(matmul(), _skeleton(True), dict(values, NB=24), SGI)
    assert len(variants_module._SHAPE_CACHE) == 1
    (shape,) = variants_module._SHAPE_CACHE.values()
    assert free_tile_symbols(shape) == {"__T_NB"}
    assert all(a is b for a, b in zip(walk_statements(bound.body), walk_statements(shape.body)))
    assert len(list(walk_statements(bound.body))) == len(list(walk_statements(shape.body)))


def test_copy_pads_enter_the_shape_key():
    """A tile size that pads the copy buffers builds a second shape."""
    variants_module.clear_base_cache()
    for nb in (64, 128):
        values = {"NB": nb, "MU": 2, "NU": 2, "KU": 1}
        want = integer_pipeline(matmul(), _skeleton(True), values, SGI)
        assert instantiate_base(matmul(), _skeleton(True), values, SGI) == want
    assert [key[3] for key in variants_module._SHAPE_CACHE] == [(0, 0), (4, 4)]


@pytest.fixture
def mm_case():
    variant = derive_variants(matmul(), SGI)[0]
    values = {p: 4 for p in variant.param_names}
    return variant, values


@pytest.mark.parametrize("param, exc", [("TI", ValueError), ("UI", TransformError)])
def test_zero_sizes_are_refused_cold_and_warm(mm_case, param, exc):
    variant, values = mm_case
    bad = dict(values, **{param: 0})
    variants_module.clear_base_cache()
    with pytest.raises(exc, match="must be >= 1"):
        instantiate_base(matmul(), variant, bad, SGI)
    assert not variants_module._SHAPE_CACHE
    instantiate_base(matmul(), variant, values, SGI)  # warm the shape
    with pytest.raises(exc, match="must be >= 1"):
        instantiate_base(matmul(), variant, bad, SGI)
    engine = EvalEngine(SGI)
    assert engine.evaluate(matmul(), variant, bad, {"N": 16}).status == "infeasible"
    assert engine.evaluate(matmul(), variant, values, {"N": 16}).status == "ok"
    engine.close()


def test_shape_lru_stays_at_its_cap(monkeypatch):
    """Bindings over more shapes than the cap evict and rebuild, and
    still bind like the integers."""
    builds = []
    original = variants_module._build_shape

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(variants_module, "_SHAPE_CAP", 3)
    monkeypatch.setattr(variants_module, "_SHAPE_CACHE", OrderedDict())
    monkeypatch.setattr(variants_module, "_build_shape", counting)
    kernel = matmul()
    cases = [(v, SGI) for v in derive_variants(kernel, SGI)] * 2
    assert_binds_like_integers(kernel, cases, random.Random(3))
    assert len(builds) > 3
    assert len(variants_module._SHAPE_CACHE) == 3


def test_threads_binding_one_shape_get_the_serial_ir():
    """Four threads bind one cold shape at the same tile sizes, each in
    its own order."""
    variant = derive_variants(matmul(), SGI)[1]
    bindings = [
        {p: (size if p.startswith("T") else 2) for p in variant.param_names}
        for size in (3, 4, 8, 16, 17)
    ]
    want = [integer_pipeline(matmul(), variant, values, SGI) for values in bindings]
    variants_module.clear_base_cache()
    start = threading.Barrier(4)
    got = [None] * 4
    errors = []

    def bind(worker):
        order = list(range(len(bindings)))
        random.Random(worker).shuffle(order)
        try:
            start.wait()
            results = {i: instantiate_base(matmul(), variant, bindings[i], SGI) for i in order}
            got[worker] = [results[i] for i in range(len(bindings))]
        except Exception as exc:  # reported below: a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=bind, args=(w,)) for w in range(4)]
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
    assert len(variants_module._SHAPE_CACHE) == 1
