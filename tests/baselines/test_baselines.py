"""Baseline tests: correctness and qualitative ordering vs ECO."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import MiniAtlas, NativeCompiler, VendorBlas
from repro.baselines.blas import _dgemm_variant
from repro.codegen.interp import allocate_arrays, run_kernel
from repro.core.variants import instantiate
from repro.frontend.parser import parse_kernel
from repro.kernels import jacobi, matmul, matvec
from repro.machines import get_machine
from repro.sim import execute

SGI = get_machine("sgi")
SUN = get_machine("sun")


class TestNativeCompiler:
    def test_native_mm_correct(self):
        mm = matmul()
        native = NativeCompiler(mm, SGI)
        compiled = native.compile()
        arrays = allocate_arrays(mm, {"N": 7})
        ref = run_kernel(mm, {"N": 7}, arrays)
        out = run_kernel(compiled, {"N": 7}, arrays)
        np.testing.assert_array_equal(ref["C"], out["C"])

    def test_native_jacobi_correct(self):
        jac = jacobi()
        native = NativeCompiler(jac, SGI)
        compiled = native.compile()
        arrays = allocate_arrays(jac, {"N": 8})
        ref = run_kernel(jac, {"N": 8}, arrays, {"c": 0.5})
        out = run_kernel(compiled, {"N": 8}, arrays, {"c": 0.5})
        np.testing.assert_array_equal(ref["A"], out["A"])

    @pytest.mark.parametrize(
        "text",
        [
            # a stepped loop: neither tiled nor jammed
            "kernel stepped(N):\n"
            "    array A[2 * N], B[2 * N, 2 * N]\n"
            "    do J = 1, N, 2:\n"
            "        do I = 1, N:\n"
            "            A[I] = A[I] + B[I, J]\n",
            # an array named like a controlling loop
            "kernel named(N):\n"
            "    array II[N], JJ[N, N]\n"
            "    do J = 1, N:\n"
            "        do I = 1, N:\n"
            "            II[I] = II[I] + JJ[I, J]\n",
        ],
        ids=["stepped", "named"],
    )
    def test_native_compiles_what_it_cannot_tile(self, text):
        kernel = parse_kernel(text)
        compiled = NativeCompiler(kernel, SGI).compile()
        arrays = allocate_arrays(kernel, {"N": 9})
        ref = run_kernel(kernel, {"N": 9}, arrays)
        out = run_kernel(compiled, {"N": 9}, arrays)
        for name in ref:
            np.testing.assert_array_equal(ref[name], out[name])

    def test_native_beats_naive(self):
        mm = matmul()
        native = NativeCompiler(mm, SGI)
        naive = execute(mm, {"N": 32}, SGI)
        assert native.measure({"N": 32}).cycles < naive.cycles

    def test_native_has_zero_search_points(self):
        assert NativeCompiler(matmul(), SGI).search_points == 0

    def test_best_order_puts_stride1_innermost(self):
        native = NativeCompiler(matmul(), SGI)
        assert native.best_order()[-1] == "I"

    def test_native_works_on_matvec(self):
        mv = matvec()
        native = NativeCompiler(mv, SGI)
        compiled = native.compile()
        arrays = allocate_arrays(mv, {"N": 9})
        ref = run_kernel(mv, {"N": 9}, arrays)
        out = run_kernel(compiled, {"N": 9}, arrays)
        np.testing.assert_array_equal(ref["y"], out["y"])


class TestVendorBlas:
    def test_blas_correct(self):
        mm = matmul()
        blas = VendorBlas(SGI)
        inst = instantiate(mm, _dgemm_variant(), blas.parameters(), SGI)
        arrays = allocate_arrays(mm, {"N": 9})
        ref = run_kernel(mm, {"N": 9}, arrays)
        out = run_kernel(inst, {"N": 9}, arrays)
        np.testing.assert_array_equal(ref["C"], out["C"])

    def test_blas_beats_native(self):
        blas = VendorBlas(SGI)
        native = NativeCompiler(matmul(), SGI)
        n = {"N": 48}
        assert blas.measure(n).cycles < native.measure(n).cycles

    def test_parameters_for_all_machines(self):
        for name in ("sgi", "sun", "sgi-full", "sun-full"):
            assert VendorBlas(get_machine(name)).parameters()

    def test_unknown_machine_raises(self):
        toy = dataclasses.replace(SGI, name="toy-machine")
        with pytest.raises(KeyError, match="no hand-tuned"):
            VendorBlas(toy).parameters()

    def test_zero_search_points(self):
        assert VendorBlas(SGI).search_points == 0


class TestMiniAtlas:
    @pytest.fixture(scope="class")
    def tuned(self):
        atlas = MiniAtlas(SGI)
        atlas.tune(32)
        return atlas

    def test_tune_produces_parameters(self, tuned):
        assert set(tuned._tuned) == {"NB", "MU", "NU", "KU"}
        assert tuned._tuned["MU"] * tuned._tuned["NU"] <= 32

    def test_search_cost_exceeds_eco_scale(self, tuned):
        # Pure orthogonal search: several dozen points minimum.
        assert tuned.search_points >= 30

    def test_atlas_correct_with_and_without_copy(self, tuned):
        mm = matmul()
        for n in (6, 24):  # below and above the copy threshold
            arrays = allocate_arrays(mm, {"N": n})
            ref = run_kernel(mm, {"N": n}, arrays)
            from repro.baselines.atlas import _skeleton

            with_copy = n * n >= tuned.copy_threshold_elems
            inst = instantiate(mm, _skeleton(with_copy), tuned._tuned, SGI)
            out = run_kernel(inst, {"N": n}, arrays)
            np.testing.assert_array_equal(ref["C"], out["C"])

    def test_measure_requires_tuning(self):
        atlas = MiniAtlas(SGI)
        with pytest.raises(RuntimeError, match="tune"):
            atlas.measure({"N": 16})

    def test_atlas_beats_native(self, tuned):
        native = NativeCompiler(matmul(), SGI)
        n = {"N": 48}
        assert tuned.measure(n).cycles < native.measure(n).cycles

    def test_copy_threshold_behavior(self, tuned):
        """Below the threshold the no-copy skeleton runs (the paper's
        small-size ATLAS fluctuation)."""
        small = tuned.measure({"N": 8})
        assert small.cycles > 0  # runs the no-copy path without error
