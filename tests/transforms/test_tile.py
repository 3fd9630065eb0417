"""Tiling tests: structure and semantics."""

import pytest

from repro.analysis.dependence import recipe_refusal
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.ir.nest import Loop, walk_loops
from repro.kernels import jacobi, matmul
from repro.transforms import TileSpec, TransformError, tile_nest

from tests.transforms.helpers import assert_equivalent

N = Var("N")
I, J = Var("I"), Var("J")


def _loop_vars(kernel):
    return [l.var for l in walk_loops(kernel.body)]


class TestTileStructure:
    def test_v1_structure(self):
        """Figure 1(b): tile J and K, point order I,J,K, controls KK,JJ."""
        mm = matmul()
        out = tile_nest(
            mm,
            [TileSpec("K", "KK", 4), TileSpec("J", "JJ", 3)],
            control_order=["KK", "JJ"],
            point_order=["I", "J", "K"],
        )
        assert _loop_vars(out) == ["KK", "JJ", "I", "J", "K"]
        roles = {l.var: l.role for l in walk_loops(out.body)}
        assert roles["KK"] == "control" and roles["JJ"] == "control"
        assert roles["I"] == "compute"

    def test_control_loop_steps_by_tile_size(self):
        mm = matmul()
        out = tile_nest(mm, [TileSpec("K", "KK", 5)])
        kk = next(l for l in walk_loops(out.body) if l.var == "KK")
        assert kk.step == 5

    def test_point_loop_bounds_guarded_by_min(self):
        mm = matmul()
        out = tile_nest(mm, [TileSpec("K", "KK", 5)])
        k = next(l for l in walk_loops(out.body) if l.var == "K")
        assert "min" in str(k.upper)
        assert str(k.lower) == "KK"


class TestTileSemantics:
    @pytest.mark.parametrize("tk,tj", [(2, 2), (3, 5), (4, 4), (7, 1), (16, 16)])
    def test_matmul_tiled_equivalent(self, tk, tj):
        mm = matmul()
        out = tile_nest(
            mm,
            [TileSpec("K", "KK", tk), TileSpec("J", "JJ", tj)],
            control_order=["KK", "JJ"],
            point_order=["I", "J", "K"],
        )
        assert_equivalent(mm, out, {"N": 7})

    def test_matmul_three_level_tiling(self):
        """Figure 1(c) shape: KK,JJ,II controls, point order J,I,K."""
        mm = matmul()
        out = tile_nest(
            mm,
            [TileSpec("K", "KK", 4), TileSpec("J", "JJ", 3), TileSpec("I", "II", 2)],
            control_order=["KK", "JJ", "II"],
            point_order=["J", "I", "K"],
        )
        assert _loop_vars(out) == ["KK", "JJ", "II", "J", "I", "K"]
        assert_equivalent(mm, out, {"N": 9})

    def test_jacobi_tiling(self):
        jac = jacobi()
        out = tile_nest(
            jac,
            [TileSpec("J", "JJ", 3)],
            point_order=["J", "K", "I"],
        )
        assert_equivalent(jac, out, {"N": 9}, consts={"c": 0.25})

    def test_tile_size_larger_than_extent(self):
        mm = matmul()
        out = tile_nest(mm, [TileSpec("J", "JJ", 100)])
        assert_equivalent(mm, out, {"N": 5})

    def test_tile_size_one(self):
        mm = matmul()
        out = tile_nest(mm, [TileSpec("J", "JJ", 1)])
        assert_equivalent(mm, out, {"N": 4})


class TestTileErrors:
    def test_unknown_loop(self):
        with pytest.raises(TransformError, match="no loop"):
            tile_nest(matmul(), [TileSpec("Z", "ZZ", 4)])

    def test_duplicate_specs(self):
        with pytest.raises(TransformError, match="duplicate"):
            tile_nest(matmul(), [TileSpec("K", "KK", 4), TileSpec("K", "K2", 2)])

    def test_control_name_collision(self):
        with pytest.raises(TransformError, match="already in use"):
            tile_nest(matmul(), [TileSpec("K", "I", 4)])

    def test_bad_point_order(self):
        with pytest.raises(TransformError, match="permutation"):
            tile_nest(matmul(), [TileSpec("K", "KK", 4)], point_order=["K", "J"])

    def test_bad_control_order(self):
        with pytest.raises(TransformError, match="control_order"):
            tile_nest(
                matmul(),
                [TileSpec("K", "KK", 4)],
                control_order=["KK", "JJ"],
            )

    def test_zero_tile_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            TileSpec("K", "KK", 0)

    def test_illegal_tiling_rejected(self):
        """Legality is the recipe check's; ``tile_nest`` is mechanical."""
        k = B.kernel(
            "skew",
            params=("N",),
            arrays=(B.array("A", N, N),),
            body=B.loop(
                "J", 2, N - 1,
                B.loop("I", 2, N - 1,
                       B.assign(B.aref("A", I, J), B.read("A", I - 1, J + 1) + 1.0)),
            ),
        )
        assert "permutable" in recipe_refusal(k, ("J", "I"), ("J", "I"))
