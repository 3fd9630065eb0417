"""Prefetch insertion tests."""

import pytest

from repro.ir import builder as B
from repro.ir.expr import Var
from repro.ir.nest import Loop, Prefetch, walk_loops, walk_statements
from repro.kernels import jacobi, matmul
from repro.transforms import (
    TransformError,
    insert_prefetch,
    scalar_replace,
    unroll_and_jam,
)

from tests.transforms.helpers import assert_equivalent


def _prefetches(kernel):
    return [s for s in walk_statements(kernel.body) if isinstance(s, Prefetch)]


class TestInsert:
    def test_semantics_unchanged(self):
        mm = matmul()
        out = insert_prefetch(mm, "A", distance=2, var="I")
        assert_equivalent(mm, out, {"N": 6})

    def test_prefetch_at_top_of_loop(self):
        mm = matmul()
        out = insert_prefetch(mm, "A", distance=2, var="I")
        i_loop = next(l for l in walk_loops(out.body) if l.var == "I")
        assert isinstance(i_loop.body[0], Prefetch)

    def test_distance_applied_to_loop_var(self):
        mm = matmul()
        out = insert_prefetch(mm, "A", distance=3, var="I")
        (pf,) = _prefetches(out)
        assert str(pf.ref) == "A[(I + 3),K]"

    def test_invariant_refs_not_prefetched(self):
        mm = matmul()
        out = insert_prefetch(mm, "B", distance=2, var="I")
        # B[K,J] does not vary with I: nothing to prefetch.
        assert _prefetches(out) == []

    def test_line_grouping_after_unroll(self):
        """UI unrolled copies of A's column collapse to ~UI/line prefetches."""
        mm = unroll_and_jam(matmul(), "I", 8)
        out = insert_prefetch(mm, "A", distance=1, var="I", line_elems=4)
        main = next(l for l in walk_loops(out.body) if l.var == "I" and l.step == 8)
        pf = [s for s in main.body if isinstance(s, Prefetch)]
        # 8 contiguous elements, 4 per line: expect about 2-3 prefetches in
        # the main loop, far fewer than 8 (the fringe loop gets its own).
        assert 2 <= len(pf) <= 3

    def test_store_targets_prefetched(self):
        jac = jacobi()
        out = insert_prefetch(jac, "A", distance=1, var="I")
        pf = _prefetches(out)
        assert pf and pf[0].ref.array == "A"

    def test_after_scalar_replacement(self):
        """Prefetches cover the remaining memory refs (rotation loads)."""
        jac = scalar_replace(jacobi(), "I")
        out = insert_prefetch(jac, "B", distance=4, var="I")
        assert _prefetches(out)
        assert_equivalent(jacobi(), out, {"N": 8}, consts={"c": 0.1})

    def test_bad_distance(self):
        with pytest.raises(TransformError, match="distance"):
            insert_prefetch(matmul(), "A", distance=0, var="I")

    def test_unknown_array(self):
        with pytest.raises(TransformError, match="no array"):
            insert_prefetch(matmul(), "Z", distance=1, var="I")
