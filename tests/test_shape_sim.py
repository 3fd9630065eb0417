"""Shape-path oracle: the engine simulates a recipe shape, bound per run,
exactly as it would simulate the bound kernel.

:class:`~repro.eval.EvalEngine` simulates the recipe shape of a candidate
(:func:`repro.core.variants.simulation_shape`, tile sizes symbolic) with
the tile sizes passed as ``execute(..., bindings=...)``; the executor
compiles each shape's programs once and binds bounds, steps and the array
layout per run.  The oracle is ``execute(instantiate(...))`` on the bound
kernel.  Pinned:

* every counter equal, ``cycles`` bit for bit, cold and warm, for
  seeded bindings of every derived variant of generated nests and of the
  paper kernels on both mini machines, and of the ATLAS skeletons, each
  with and without a prefetch site and pads, and with chunks small
  enough that every run splits into many slabs;
* the placed-shape and program memos stay at their caps;
* four threads simulating bindings of one cold shape get the serial
  counters;
* the variants two machines derive for one recipe share one shape;
* :func:`~repro.core.variants.clear_base_cache` leaves a search nothing
  warm: two identical searches separated by it build as many shapes and
  analyse as many miss-model shapes.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

import pytest

import repro.core.variants as variants_module
import repro.sim.executor as executor
from repro.analysis import missmodel
from repro.baselines.atlas import _skeleton
from repro.core import EcoOptimizer
from repro.core.derive import derive_variants
from repro.core.search import SearchConfig
from repro.core.variants import (
    PrefetchSite,
    Variant,
    instantiate,
    prefetch_sites,
    simulation_shape,
)
from repro.eval import EvalEngine
from repro.frontend.parser import parse_kernel
from repro.ir.nest import Kernel, walk_loops
from repro.kernels import KERNELS, matmul
from repro.machines import MachineSpec
from repro.sim import Counters, execute
from repro.transforms import TransformError
from repro.transforms.padding import pad_arrays

from tests.sim.test_nest_fuzz import generate_nest
from tests.test_shape_bind import MACHINES, SGI, TILE_SIZES, UNROLL_FACTORS

SUN = MACHINES[1]
#: problem size of the paper kernels (small: each case simulates twice)
PAPER_N = 12


def _fields(counters: Counters) -> Dict[str, object]:
    """Every field but the wall time of the run."""
    out = dataclasses.asdict(counters)
    del out["sim_seconds"]
    return out


def bound_counters(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: MachineSpec,
    problem: Mapping[str, int],
    prefetch: Mapping[PrefetchSite, int],
    pads: Mapping[str, int],
) -> Optional[Counters]:
    """The oracle: the bound kernel simulated; None when it is refused."""
    try:
        built = instantiate(kernel, variant, values, machine, prefetch)
        if pads:
            built = pad_arrays(built, pads)
        return execute(built, problem, machine)
    except (TransformError, ValueError):
        return None


def _placements(kernel: Kernel, variant: Variant, values, machine):
    """No prefetch and no pads; the first prefetch site with pads on the
    first source array and on every copy buffer (whose extents are tile
    symbols on the shape); the last site at another distance."""
    yield {}, {}
    built = instantiate(kernel, variant, values, machine)
    sites = prefetch_sites(built, variant)
    pads = {kernel.arrays[0].name: 3}
    pads.update((plan.temp, 2) for plan in variant.copies)
    yield ({sites[0]: 2} if sites else {}), pads
    if sites:
        yield {sites[-1]: 5}, {}


def assert_shape_sims_like_bound(
    kernel: Kernel,
    cases: Iterable[Tuple[Variant, MachineSpec]],
    problem: Mapping[str, int],
    rng: random.Random,
    bindings: int = 1,
) -> int:
    """Each case at ``bindings`` seeded bindings, from empty process-wide
    memos: the engine's counters equal the oracle's, cold and warm.
    Returns the simulations compared."""
    variants_module.clear_base_cache()
    compared = 0
    for variant, machine in cases:
        tiles = {param for _, param in variant.tiles}
        for _ in range(bindings):
            values = {
                p: rng.choice(TILE_SIZES[:-1] if p in tiles else UNROLL_FACTORS[:3])
                for p in variant.param_names
            }
            try:
                placements = list(_placements(kernel, variant, values, machine))
            except (TransformError, ValueError):
                placements = [({}, {})]
            for prefetch, pads in placements:
                want = bound_counters(kernel, variant, values, machine, problem, prefetch, pads)
                label = (kernel.name, machine.name, variant.name, values, prefetch, pads)
                for _ in range(2):  # cold, then warm programs
                    outcome = EvalEngine(machine).evaluate(
                        kernel, variant, values, problem, prefetch, pads
                    )
                    if want is None:
                        assert outcome.status == "infeasible", label
                        continue
                    assert outcome.status == "ok", label
                    assert _fields(outcome.counters) == _fields(want), label
                    compared += 1
    return compared


def _derived_cases(kernel: Kernel):
    for machine in MACHINES:
        for variant in derive_variants(kernel, machine):
            yield variant, machine


def assert_shape_sim_matches(seed: int) -> None:
    """Every derived variant of generated nest ``seed`` on both mini
    machines simulates like its bound kernel (a nest with a stepped loop
    has no variants)."""
    text, problem = generate_nest(seed)
    kernel = parse_kernel(text)
    if any(loop.step != 1 for loop in walk_loops(kernel.body)):
        return
    assert_shape_sims_like_bound(kernel, _derived_cases(kernel), problem, random.Random(seed))


@pytest.mark.parametrize("seed", range(40))
def test_generated_nest_simulates_like_bound(seed):
    assert_shape_sim_matches(seed)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_paper_kernel_simulates_like_bound(name):
    kernel = KERNELS[name]()
    problem = {p: PAPER_N for p in kernel.params}
    if "F" in problem:
        problem["F"] = 3
    compared = assert_shape_sims_like_bound(
        kernel, _derived_cases(kernel), problem, random.Random(name)
    )
    assert compared > 0


@pytest.mark.parametrize("with_copy", [False, True])
def test_atlas_skeleton_simulates_like_bound(with_copy):
    cases = [(_skeleton(with_copy), machine) for machine in MACHINES]
    compared = assert_shape_sims_like_bound(
        matmul(), cases, {"N": 24}, random.Random(11), bindings=2
    )
    assert compared > 0


@pytest.mark.parametrize("name", ["mm", "jacobi"])
def test_slabs_and_chunks_are_sized_per_run(name, monkeypatch):
    """With tiny chunks every run splits into many slabs and chunks,
    whose boundaries follow each run's own slab estimates: the counters
    (``sim_batches`` and the float order of ``cycles`` included) still
    equal the bound kernel's, binding after binding of one shape."""
    monkeypatch.setattr(executor, "_CHUNK_ENTRIES", 97)
    monkeypatch.setattr(executor, "_MAX_SLAB_ENTRIES", 32 * 97)
    kernel = KERNELS[name]()
    variant = derive_variants(kernel, SGI)[0]
    cases = [(variant, SGI)] * 3
    assert assert_shape_sims_like_bound(kernel, cases, {"N": 16}, random.Random(5)) > 0


def test_placed_shapes_and_programs_stay_at_their_caps(monkeypatch):
    """Bindings over more shapes than the memos hold place and compile
    evicted shapes again and still simulate like the bound kernels."""
    monkeypatch.setattr(executor, "_COMPILED_CAP", 1)
    monkeypatch.setattr(variants_module, "_PLACED_CAP", 1)
    kernel = matmul()
    cases = [(v, SGI) for v in derive_variants(kernel, SGI)[:4]] * 2
    assert assert_shape_sims_like_bound(kernel, cases, {"N": 16}, random.Random(2)) > 0
    assert len(executor._COMPILED) == 1
    assert len(variants_module._PLACED) == 1
    variants_module.clear_base_cache()
    assert not executor._COMPILED and not variants_module._PLACED


def test_threads_simulating_one_cold_shape_get_the_serial_counters():
    """Four threads simulate five tile bindings of one cold shape, each
    in its own order."""
    kernel = matmul()
    variant = derive_variants(kernel, SGI)[1]
    problem = {"N": 24}
    bindings = [
        {p: (size if p.startswith("T") else 2) for p in variant.param_names}
        for size in (3, 4, 8, 16, 17)
    ]
    want = [
        _fields(bound_counters(kernel, variant, values, SGI, problem, {}, {}))
        for values in bindings
    ]
    variants_module.clear_base_cache()
    start = threading.Barrier(4)
    got = [None] * 4
    errors = []

    def simulate(worker):
        order = list(range(len(bindings)))
        random.Random(worker).shuffle(order)
        engine = EvalEngine(SGI)
        try:
            start.wait()
            results = {
                i: _fields(engine.evaluate(kernel, variant, bindings[i], problem).counters)
                for i in order
            }
            got[worker] = [results[i] for i in range(len(bindings))]
        except Exception as exc:  # reported below: a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=simulate, args=(w,)) for w in range(4)]
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


def test_two_machines_share_the_shape_of_one_recipe():
    """mm's v2 on sgi and on sun are different variants of one recipe:
    one shape, and (no prefetch) one simulated kernel."""
    kernel = matmul()
    by_sgi = derive_variants(kernel, SGI)[1]
    by_sun = next(v for v in derive_variants(kernel, SUN) if v.name == by_sgi.name)
    assert by_sgi != by_sun
    values = {p: 8 for p in by_sgi.param_names}
    variants_module.clear_base_cache()
    on_sgi, _ = simulation_shape(kernel, by_sgi, values, SGI)
    on_sun, _ = simulation_shape(kernel, by_sun, values, SUN)
    assert on_sgi is on_sun
    assert len(variants_module._SHAPE_CACHE) == 1


def test_clear_base_cache_leaves_a_search_nothing_warm(monkeypatch):
    """Two identical searches separated by ``clear_base_cache`` build
    as many recipe shapes and analyse as many miss-model shapes."""
    counts = {"build": 0, "analyze": 0}
    build, analyze = variants_module._build_shape, missmodel._analyze_shape

    def counting_build(*args):
        counts["build"] += 1
        return build(*args)

    def counting_analyze(*args):
        counts["analyze"] += 1
        return analyze(*args)

    monkeypatch.setattr(variants_module, "_build_shape", counting_build)
    monkeypatch.setattr(missmodel, "_analyze_shape", counting_analyze)
    runs = []
    for _ in range(2):
        variants_module.clear_base_cache()
        counts.update(build=0, analyze=0)
        config = SearchConfig(full_search_variants=1, prescreen=True)
        optimizer = EcoOptimizer(matmul(), SGI, config)
        optimizer.optimize({"N": 16})
        runs.append(dict(counts))
    assert runs[0] == runs[1]
    assert runs[0]["build"] > 0 and runs[0]["analyze"] > 0
