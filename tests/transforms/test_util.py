"""Tests for the shared transform utilities."""

import pytest

from repro.ir import builder as B
from repro.ir.expr import Var
from repro.kernels import matmul
from repro.transforms.util import (
    TransformError,
    fresh_name,
    is_statement_body,
    perfect_nest_loops,
    replace_loop,
)

N = Var("N")


class TestReplaceLoop:
    def test_replace_expands(self):
        mm = matmul()
        out = replace_loop(mm.body, "I", lambda l: (l, l))
        from repro.ir.nest import walk_loops

        assert sum(1 for l in walk_loops(out) if l.var == "I") == 2

    def test_replace_can_drop(self):
        mm = matmul()
        out = replace_loop(mm.body, "I", lambda l: ())
        from repro.ir.nest import walk_loops

        assert all(l.var != "I" for l in walk_loops(out))

    def test_untouched_tree_structure_preserved(self):
        mm = matmul()
        out = replace_loop(mm.body, "Z", lambda l: ())
        assert out == mm.body


class TestNestHelpers:
    def test_is_statement_body(self):
        mm = matmul()
        from repro.ir.nest import walk_loops

        loops = {l.var: l for l in walk_loops(mm.body)}
        assert is_statement_body(loops["I"])
        assert not is_statement_body(loops["K"])

    def test_perfect_nest_loops(self):
        mm = matmul()
        assert [l.var for l in perfect_nest_loops(mm)] == ["K", "J", "I"]

    def test_imperfect_nest_rejected(self):
        k = B.kernel(
            "imp",
            params=("N",),
            arrays=(B.array("A", N, N),),
            body=B.loop(
                "J", 1, N,
                B.assign(B.aref("A", 1, Var("J")), B.num(0)),
                B.loop("I", 1, N, B.assign(B.aref("A", Var("I"), Var("J")), B.num(1))),
            ),
        )
        with pytest.raises(TransformError, match="perfect"):
            perfect_nest_loops(k)

    def test_statements_only_kernel_gives_empty_nest(self):
        k = B.kernel(
            "flat",
            params=(),
            arrays=(B.array("A", 4),),
            body=(B.assign(B.aref("A", 1), B.num(0)),),
        )
        assert perfect_nest_loops(k) == []


class TestFreshName:
    def test_untaken_base(self):
        assert fresh_name("cK", set()) == "cK"

    def test_suffixes(self):
        assert fresh_name("cK", {"cK"}) == "cK2"
        assert fresh_name("cK", {"cK", "cK2"}) == "cK3"
