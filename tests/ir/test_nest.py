"""Unit tests for the loop-nest IR node types and traversals."""

import pytest

from repro.ir import builder as B
from repro.ir.expr import Const, Var
from repro.ir.nest import (
    ArrayRef,
    Assign,
    Loop,
    Prefetch,
    array_refs,
    find_loop,
    loop_order,
    map_statements,
    walk_loops,
    walk_statements,
)
from repro.kernels import jacobi, matmul

N = Var("N")
I, J, K = Var("I"), Var("J"), Var("K")


class TestArrayDecl:
    def test_rank_and_size(self):
        decl = B.array("A", N, 4)
        assert decl.rank == 2
        assert decl.size_expr().evaluate({"N": 3}) == 12

    def test_str(self):
        assert str(B.array("A", N, N)) == "A[N,N]"


class TestArrayRef:
    def test_free_vars(self):
        ref = B.aref("A", I + 1, K)
        assert ref.free_vars() == {"I", "K"}

    def test_substitute(self):
        ref = B.aref("A", I, K)
        assert ref.substitute({"K": I}) == B.aref("A", I, I)

    def test_scalar_array_ref_has_no_free_vars(self):
        assert ArrayRef("s", ()).free_vars() == frozenset()


class TestCExpr:
    def test_flop_count(self):
        expr = B.read("C", I, J) + B.read("A", I, K) * B.read("B", K, J)
        assert expr.flops() == 2

    def test_reads_in_order(self):
        expr = B.read("C", I, J) + B.read("A", I, K) * B.read("B", K, J)
        assert [r.array for r in expr.reads()] == ["C", "A", "B"]

    def test_operator_coercion_of_numbers(self):
        expr = 2 * B.read("A", I)
        assert expr.flops() == 1

    def test_substitute_traverses(self):
        expr = B.read("A", I) + B.scalar("c")
        sub = expr.substitute({"I": Const(3)})
        assert list(sub.reads())[0] == B.aref("A", 3)


class TestLoop:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="empty body"):
            Loop("I", Const(1), N, 1, ())

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            B.loop("I", 1, N, B.assign("t", B.num(0)), step=0)

    def test_trip_count(self):
        loop = B.loop("I", 1, 10, B.assign("t", B.num(0)), step=3)
        assert loop.trip_count({}) == 4

    def test_trip_count_empty_range(self):
        loop = B.loop("I", 5, 4, B.assign("t", B.num(0)))
        assert loop.trip_count({}) == 0

    def test_trip_count_symbolic(self):
        loop = B.loop("I", 1, N, B.assign("t", B.num(0)))
        assert loop.trip_count({"N": 17}) == 17

    def test_substitute_does_not_touch_own_var(self):
        loop = B.loop("I", 1, N, B.assign(B.aref("A", I), B.num(0)))
        out = loop.substitute({"I": Const(99), "N": Const(5)})
        assert out.upper == Const(5)
        assert out.body[0].target == B.aref("A", I)


class TestKernelHelpers:
    def test_loop_order_mm(self):
        assert loop_order(matmul()) == ("K", "J", "I")

    def test_loop_order_jacobi(self):
        assert loop_order(jacobi()) == ("K", "J", "I")

    def test_find_loop(self):
        mm = matmul()
        loop = find_loop(mm.body, "J")
        assert loop is not None and loop.var == "J"
        assert find_loop(mm.body, "Z") is None

    def test_walk_statements_finds_the_one_assign(self):
        stmts = list(walk_statements(matmul().body))
        assert len(stmts) == 1
        assert isinstance(stmts[0], Assign)

    def test_walk_loops_depth(self):
        assert [l.var for l in walk_loops(matmul().body)] == ["K", "J", "I"]

    def test_array_refs_reads_then_write(self):
        refs = list(array_refs(matmul().body))
        assert [(r.array, w) for r, w in refs] == [
            ("C", False),
            ("A", False),
            ("B", False),
            ("C", True),
        ]

    def test_array_refs_skips_prefetch(self):
        body = (Prefetch(B.aref("A", Const(1), Const(1))),)
        assert list(array_refs(body)) == []

    def test_kernel_array_lookup(self):
        mm = matmul()
        assert mm.array("A").rank == 2
        with pytest.raises(KeyError):
            mm.array("Z")

    def test_with_array_rejects_duplicates(self):
        mm = matmul()
        with pytest.raises(ValueError):
            mm.with_array(B.array("A", N))

    def test_map_statements_can_drop_and_expand(self):
        mm = matmul()
        doubled = map_statements(mm.body, lambda s: (s, s))
        assert len(list(walk_statements(doubled))) == 2
        emptied = map_statements(mm.body, lambda s: ())
        assert len(list(walk_statements(emptied))) == 0
