"""Reuse analysis tests: the paper's kernels have well-known reuse shapes."""

import pytest

from repro.analysis.reuse import analyze_reuse
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.kernels import jacobi, matmul, matvec

N = Var("N")
I, J, K = Var("I"), Var("J"), Var("K")


def _refs_of_array(summary, array):
    return [info for info in summary.refs if info.ref.array == array]


def _reuse_amount(summary, ref, loop, trip_count):
    """The paper's ``R_l(r)``: N_l with temporal reuse carried by
    ``loop``, CLS with spatial reuse, else 1."""
    temporal, spatial = summary.carried(loop)
    if ref in temporal:
        return trip_count
    if ref in spatial:
        return summary.line_elems
    return 1


class TestMatmulReuse:
    def setup_method(self):
        self.summary = analyze_reuse(matmul(), line_size=32)

    def _info(self, array):
        infos = _refs_of_array(self.summary, array)
        assert len(infos) == 1
        return infos[0]

    def test_c_temporal_in_k(self):
        assert self._info("C").self_temporal == {"K"}

    def test_a_temporal_in_j(self):
        assert self._info("A").self_temporal == {"J"}

    def test_b_temporal_in_i(self):
        assert self._info("B").self_temporal == {"I"}

    def test_spatial_in_fastest_dimension_loop(self):
        # Column-major: dim 0 of C and A is I, of B is K.
        assert self._info("C").self_spatial == {"I"}
        assert self._info("A").self_spatial == {"I"}
        assert self._info("B").self_spatial == {"K"}

    def test_write_flag(self):
        assert self._info("C").is_write
        assert not self._info("A").is_write

    def test_no_group_reuse(self):
        assert self.summary.groups == []

    def test_reuse_amounts(self):
        c = self._info("C").ref
        assert _reuse_amount(self.summary, c, "K", trip_count=100) == 100
        assert _reuse_amount(self.summary, c, "I", trip_count=100) == 4  # 32B/8B
        assert _reuse_amount(self.summary, c, "J", trip_count=100) == 1


class TestJacobiReuse:
    def setup_method(self):
        self.summary = analyze_reuse(jacobi(), line_size=32)

    def test_every_loop_carries_group_temporal_reuse_of_b(self):
        for loop in ("I", "J", "K"):
            refs = self.summary.temporal_refs(loop)
            assert any(r.array == "B" for r in refs), loop

    def test_group_distances_are_two(self):
        temporal = [g for g in self.summary.groups if not g.spatial]
        assert temporal, "expected group-temporal pairs"
        assert all(g.distance == 2 for g in temporal)
        assert {g.loop for g in temporal} == {"I", "J", "K"}

    def test_a_has_no_temporal_reuse(self):
        a_infos = _refs_of_array(self.summary, "A")
        assert all(not info.self_temporal for info in a_infos)

    def test_spatial_reuse_in_i(self):
        # All refs index dim 0 with I at stride 1.
        for info in self.summary.refs:
            assert info.self_spatial == {"I"}


class TestMatvecReuse:
    def test_x_temporal_in_i_and_y_in_j(self):
        summary = analyze_reuse(matvec(), line_size=32)
        (x_info,) = _refs_of_array(summary, "x")
        (y_info,) = _refs_of_array(summary, "y")
        assert x_info.self_temporal == {"I"}
        assert y_info.self_temporal == {"J"}


class TestEdgeCases:
    def test_large_stride_defeats_spatial_reuse(self):
        k = B.kernel(
            "strided",
            params=("N",),
            arrays=(B.array("A", 8 * N),),
            body=B.loop("I", 1, N, B.assign(B.aref("A", 8 * I), B.num(0))),
        )
        summary = analyze_reuse(k, line_size=32)
        (info,) = _refs_of_array(summary, "A")
        assert info.self_spatial == frozenset()

    def test_group_spatial_offset_within_line(self):
        k = B.kernel(
            "gs",
            params=("N",),
            arrays=(B.array("A", N, N), B.array("Z", N, N)),
            body=B.loop(
                "J", 1, N,
                B.loop(
                    "I", 2, N,
                    B.assign(B.aref("Z", I, J), B.read("A", I, J) + B.read("A", I - 1, J)),
                ),
            ),
        )
        summary = analyze_reuse(k, line_size=32)
        temporal = [g for g in summary.groups if not g.spatial and g.ref_a.array == "A"]
        assert temporal and temporal[0].loop == "I" and temporal[0].distance == 1

    def test_small_line_kills_spatial(self):
        summary = analyze_reuse(matmul(), line_size=8)
        for info in summary.refs:
            assert info.self_spatial == frozenset()

    def test_reuse_amount_unit_when_uncarried(self):
        summary = analyze_reuse(matmul(), line_size=32)
        (b_info,) = _refs_of_array(summary, "B")
        assert _reuse_amount(summary, b_info.ref, "J", trip_count=64) == 1
