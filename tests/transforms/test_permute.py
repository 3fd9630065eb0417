"""Loop permutation tests."""

import pytest

from repro.analysis.dependence import recipe_refusal
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.ir.nest import loop_order
from repro.kernels import jacobi, matmul
from repro.transforms import TransformError, permute

from tests.transforms.helpers import assert_equivalent

N = Var("N")
I, J = Var("I"), Var("J")


class TestPermute:
    @pytest.mark.parametrize(
        "order",
        [("I", "J", "K"), ("J", "K", "I"), ("K", "I", "J"), ("I", "K", "J")],
    )
    def test_matmul_all_orders_equivalent(self, order):
        mm = matmul()
        out = permute(mm, order)
        assert loop_order(out) == order
        assert_equivalent(mm, out, {"N": 6})

    def test_jacobi_permutation(self):
        jac = jacobi()
        out = permute(jac, ("I", "K", "J"))
        assert loop_order(out) == ("I", "K", "J")
        assert_equivalent(jac, out, {"N": 7}, consts={"c": 0.3})

    def test_identity_permutation(self):
        mm = matmul()
        out = permute(mm, ("K", "J", "I"))
        assert loop_order(out) == ("K", "J", "I")

    def test_rejects_wrong_variable_set(self):
        with pytest.raises(TransformError, match="does not match"):
            permute(matmul(), ("K", "J", "Z"))

    def test_rejects_illegal_permutation(self):
        """Legality is the recipe check's; ``permute`` is mechanical."""
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
        assert "reverses a dependence" in recipe_refusal(k, (), ("I", "J"))
        assert recipe_refusal(k, (), ("J", "I")) is None

    def test_rejects_non_perfect_nest(self):
        k = B.kernel(
            "imp",
            params=("N",),
            arrays=(B.array("A", N),),
            body=B.loop(
                "I", 1, N,
                B.assign("t", B.num(0.0)),
                B.assign(B.aref("A", I), B.scalar("t")),
            ),
        )
        # Single loop: permuting to itself is fine, but the helper used by
        # permute must see a perfect nest; a statement beside a loop is not.
        k2 = B.kernel(
            "imp2",
            params=("N",),
            arrays=(B.array("A", N, N),),
            body=B.loop(
                "J", 1, N,
                B.assign(B.aref("A", 1, J), B.num(0.0)),
                B.loop("I", 1, N, B.assign(B.aref("A", I, J), B.num(1.0))),
            ),
        )
        with pytest.raises(TransformError, match="perfect"):
            permute(k2, ("I", "J"))

    def test_rejects_triangular_nest(self):
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
            permute(k, ("I", "J"))
