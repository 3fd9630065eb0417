"""Footprint model tests, including the paper's Table 4 constraint shapes."""

import pytest

from repro.analysis.footprint import (
    footprint_elems,
    group_footprint_elems,
    ref_extents,
    ref_footprint_elems,
)
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.ir.nest import array_refs
from repro.kernels import jacobi, matmul

N = Var("N")
UI, UJ = Var("UI"), Var("UJ")
TJ, TK = Var("TJ"), Var("TK")


def _ref(kernel, array):
    for ref, _ in array_refs(kernel.body):
        if ref.array == array:
            return ref
    raise AssertionError(array)


class TestRefFootprint:
    def test_register_tile_of_c_is_ui_by_uj(self):
        mm = matmul()
        fp = ref_footprint_elems(mm, _ref(mm, "C"), {"I": UI, "J": UJ})
        assert fp.evaluate({"UI": 4, "UJ": 2}) == 8

    def test_b_tile_is_tk_by_tj(self):
        mm = matmul()
        fp = ref_footprint_elems(mm, _ref(mm, "B"), {"K": TK, "J": TJ})
        assert fp.evaluate({"TK": 64, "TJ": 32}) == 2048

    def test_loop_not_in_extents_contributes_one(self):
        mm = matmul()
        fp = ref_footprint_elems(mm, _ref(mm, "A"), {"J": TJ})
        # A[I,K] does not use J at all.
        assert fp.evaluate({"TJ": 100}) == 1

    def test_extents_account_for_coefficients(self):
        k = B.kernel(
            "s",
            params=("N",),
            arrays=(B.array("A", 4 * N),),
            body=B.loop("I", 1, N, B.assign(B.aref("A", 2 * Var("I")), B.num(0))),
        )
        (ref,) = [r for r, _ in array_refs(k.body)]
        dims = ref_extents(k, ref, {"I": Var("T")})
        assert dims[0].evaluate({"T": 10}) == 19  # 2*(10-1)+1


class TestGroupFootprint:
    def test_jacobi_b_refs_union(self):
        jac = jacobi()
        b_refs = [r for r, _ in array_refs(jac.body) if r.array == "B"]
        assert len(b_refs) == 6
        fp = group_footprint_elems(jac, b_refs, {"I": Var("TI"), "J": Var("TJ")})
        # Union: (TI+2) * (TJ+2) * 3 planes along K (spread 2, extent 1).
        assert fp.evaluate({"TI": 4, "TJ": 4}) == 6 * 6 * 3

    def test_sum_across_arrays(self):
        mm = matmul()
        refs = [_ref(mm, "A"), _ref(mm, "B")]
        fp = footprint_elems(mm, refs, {"K": TK, "J": TJ, "I": Var("TI")})
        value = fp.evaluate({"TK": 8, "TJ": 4, "TI": 2})
        assert value == 8 * 2 + 8 * 4  # A tile + B tile

    def test_mixed_arrays_rejected_by_group_helper(self):
        mm = matmul()
        with pytest.raises(ValueError):
            group_footprint_elems(mm, [_ref(mm, "A"), _ref(mm, "B")], {})


class TestNumericFootprints:
    def test_table4_constraint_shapes(self):
        """The symbolic footprints reproduce the paper's Table 4 bounds:
        UI*UJ <= 32 registers, TJ*TK <= 2048 L1 elements."""
        mm = matmul()
        reg = ref_footprint_elems(mm, _ref(mm, "C"), {"I": UI, "J": UJ})
        l1 = ref_footprint_elems(mm, _ref(mm, "B"), {"K": TK, "J": TJ})
        assert str(reg) in ("UI*UJ", "UJ*UI")
        assert reg.evaluate({"UI": 8, "UJ": 4}) == 32
        assert l1.evaluate({"TK": 64, "TJ": 32}) == 2048
