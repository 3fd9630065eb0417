"""Unroll-and-jam tests: fringe exactness and jamming structure."""

import numpy as np
import pytest

from repro.analysis.dependence import recipe_refusal
from repro.codegen.interp import allocate_arrays, run_kernel
from repro.frontend.parser import parse_kernel
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.ir.nest import Loop, loop_order, walk_loops, walk_statements
from repro.kernels import jacobi, matmul
from repro.transforms import TileSpec, TransformError, tile_nest, unroll_and_jam

from tests.sim.test_nest_fuzz import generate_nest
from tests.transforms.helpers import assert_equivalent

N = Var("N")
I, J = Var("I"), Var("J")


class TestUnrollJamSemantics:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_matmul_unroll_i_all_sizes(self, n, factor):
        mm = matmul()
        out = unroll_and_jam(mm, "I", factor)
        assert_equivalent(mm, out, {"N": n})

    def test_matmul_unroll_i_and_j(self):
        mm = matmul()
        out = unroll_and_jam(unroll_and_jam(mm, "I", 4), "J", 2)
        assert_equivalent(mm, out, {"N": 7})

    def test_jacobi_unroll_j_and_k(self):
        jac = jacobi()
        out = unroll_and_jam(unroll_and_jam(jac, "J", 2), "K", 2)
        assert_equivalent(jac, out, {"N": 8}, consts={"c": 0.4})
        assert_equivalent(jac, out, {"N": 9}, consts={"c": 0.4})

    def test_unroll_after_tiling(self):
        mm = matmul()
        tiled = tile_nest(
            mm,
            [TileSpec("K", "KK", 4), TileSpec("J", "JJ", 3)],
            control_order=["KK", "JJ"],
            point_order=["I", "J", "K"],
        )
        out = unroll_and_jam(unroll_and_jam(tiled, "I", 2), "J", 2)
        assert_equivalent(mm, out, {"N": 7})
        assert_equivalent(mm, out, {"N": 8})

    def test_factor_one_is_identity(self):
        mm = matmul()
        assert unroll_and_jam(mm, "I", 1) is mm


class TestUnrollJamStructure:
    def test_main_loop_steps_by_factor_and_fringe_exists(self):
        mm = matmul()
        out = unroll_and_jam(mm, "I", 4)
        i_loops = [l for l in walk_loops(out.body) if l.var == "I"]
        assert len(i_loops) == 2
        assert i_loops[0].step == 4 and i_loops[1].step == 1

    def test_statements_replicated_in_main_body(self):
        mm = matmul()
        out = unroll_and_jam(mm, "I", 4)
        i_main = next(l for l in walk_loops(out.body) if l.var == "I" and l.step == 4)
        assert len(list(walk_statements(i_main.body))) == 4

    def test_jam_keeps_single_inner_loop(self):
        # Unrolling J (outer) must not duplicate the I loop inside it.
        mm = matmul()
        out = unroll_and_jam(mm, "J", 2)
        j_main = next(l for l in walk_loops(out.body) if l.var == "J" and l.step == 2)
        inner_loops = [n for n in j_main.body if isinstance(n, Loop)]
        assert len(inner_loops) == 1
        assert len(list(walk_statements(j_main.body))) == 2

    def test_substitution_shifts_index(self):
        mm = matmul()
        out = unroll_and_jam(mm, "J", 2)
        j_main = next(l for l in walk_loops(out.body) if l.var == "J" and l.step == 2)
        stmts = list(walk_statements(j_main.body))
        targets = {str(s.target) for s in stmts}
        assert targets == {"C[I,J]", "C[I,(J + 1)]"}


class TestUnrollJamErrors:
    def test_zero_factor(self):
        with pytest.raises(TransformError, match=">= 1"):
            unroll_and_jam(matmul(), "I", 0)

    def test_unknown_loop(self):
        with pytest.raises(TransformError, match="no loop"):
            unroll_and_jam(matmul(), "Z", 2)

    def test_triangular_inner_loop_rejected(self):
        k = B.kernel(
            "tri",
            params=("N",),
            arrays=(B.array("A", N, N),),
            body=B.loop(
                "J", 1, N,
                B.loop("I", J, N, B.assign(B.aref("A", I, J), B.num(0.0))),
            ),
        )
        with pytest.raises(TransformError, match="non-rectangular"):
            unroll_and_jam(k, "J", 2)

    def test_illegal_jam_rejected(self):
        """Legality is the recipe check's; ``unroll_and_jam`` is mechanical."""
        k = B.kernel(
            "skew",
            params=("N",),
            arrays=(B.array("A", N, N),),
            body=B.loop(
                "J", 2, N - 1,
                B.loop("I", 2, N - 1,
                       B.assign(B.aref("A", I, J), B.read("A", I + 1, J - 1) + 1.0)),
            ),
        )
        assert "reverses a dependence" in recipe_refusal(k, (), ("J", "I"), ("J",))

    def test_already_stepped_loop_rejected(self):
        mm = matmul()
        once = unroll_and_jam(mm, "I", 2)
        with pytest.raises(TransformError, match="already has step"):
            unroll_and_jam(once, "I", 2)


class TestScalarTemporaries:
    """Jamming interleaves the copies statement by statement and keeps
    scalar names, so a scalar temporary whose value differs between the
    copies would be read by one copy after the next copy overwrote it.
    The recipe check refuses such a jam."""

    def _nest(self, t_value):
        return B.kernel(
            "tmp",
            params=("N",),
            arrays=(B.array("A", N + 3), B.array("B", N, N + 3), B.array("C", N)),
            body=B.loop(
                "I", 1, N,
                B.loop(
                    "J", 1, N,
                    B.assign("t", t_value * 2.0),
                    B.assign(
                        B.aref("C", J),
                        B.read("C", J) + B.scalar("t") * B.read("B", J, I + 2),
                    ),
                ),
            ),
        )

    def test_scalar_reading_the_unrolled_index_is_refused(self):
        kernel = self._nest(B.read("A", I + 2))
        refusal = recipe_refusal(kernel, (), ("I", "J"), ("I",), allow_reassociation=True)
        assert "scalar temporaries" in refusal

    def test_scalar_carried_across_iterations_is_refused(self):
        k = B.kernel(
            "carry",
            params=("N",),
            arrays=(B.array("A", N), B.array("C", N)),
            body=(
                B.assign("s", B.num(0.0)),
                B.loop(
                    "I", 1, N,
                    B.loop(
                        "J", 1, N,
                        B.assign(B.aref("C", J), B.read("C", J) + B.scalar("s")),
                        B.assign("s", B.read("A", J) * 2.0),
                    ),
                ),
            ),
        )
        refusal = recipe_refusal(k, (), ("I", "J"), ("I",), allow_reassociation=True)
        assert "scalar temporaries" in refusal

    def test_scalar_invariant_in_the_unrolled_index_is_jammed(self):
        kernel = self._nest(B.read("A", J))
        assert recipe_refusal(kernel, (), ("I", "J"), ("I",), allow_reassociation=True) is None
        out = unroll_and_jam(kernel, "I", 2)
        assert_equivalent(kernel, out, {"N": 5})

    @pytest.mark.parametrize("seed", [4, 9, 25, 31])
    def test_generated_nests_with_scalar_temporaries(self, seed):
        """Generated nests whose jammed copies once read the last copy's
        temporary: the jam is now refused or the result matches."""
        text, params = generate_nest(seed)
        kernel = parse_kernel(text)
        order = loop_order(kernel)
        if recipe_refusal(kernel, (), order, order[-2:-1], allow_reassociation=True):
            return
        out = unroll_and_jam(kernel, order[-2], 2)
        arrays = allocate_arrays(kernel, params, seed=seed)
        want = run_kernel(kernel, params, arrays)
        got = run_kernel(out, params, arrays)
        for name in want:
            assert np.allclose(got[name], want[name]), name
