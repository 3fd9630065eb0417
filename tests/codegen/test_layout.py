"""Memory layout tests."""

import pytest

from repro.codegen.layout import ArrayLayout, MemoryLayout
from repro.kernels import jacobi, matmul
from repro.transforms.padding import pad_arrays


class TestArrayLayout:
    def test_column_major_strides(self):
        layout = MemoryLayout.build(matmul(), {"N": 10})
        a = layout["A"]
        assert a.strides == (1, 10)
        assert a.size_bytes == 800

    def test_linear_offset_one_based(self):
        layout = MemoryLayout.build(matmul(), {"N": 10})
        a = layout["A"]
        assert a.linear_offset((1, 1)) == 0
        assert a.linear_offset((2, 1)) == 1
        assert a.linear_offset((1, 2)) == 10

    def test_3d_strides(self):
        layout = MemoryLayout.build(jacobi(), {"N": 5})
        b = layout["B"]
        assert b.strides == (1, 5, 25)

    def test_array_ends(self):
        layout = MemoryLayout.build(matmul(), {"N": 4})
        for name in ("A", "B", "C"):
            arr = layout[name]
            assert arr.end == arr.base + 4 * 4 * 8


class TestMemoryLayoutBuild:
    def test_no_overlap(self):
        layout = MemoryLayout.build(matmul(), {"N": 33})
        spans = sorted((layout[n].base, layout[n].end) for n in ("A", "B", "C"))
        for (b1, e1), (b2, e2) in zip(spans, spans[1:]):
            assert e1 <= b2

    def test_alignment(self):
        layout = MemoryLayout.build(matmul(), {"N": 7})
        for arr in layout.arrays.values():
            assert arr.base % 128 == 0

    def test_stagger_decorrelates_power_of_two(self):
        layout = MemoryLayout.build(matmul(), {"N": 64})
        residues = {layout[n].base % 2048 for n in ("A", "B", "C")}
        assert len(residues) == 3

    def test_temps_allocated_too(self):
        from repro.ir import builder as B

        k = matmul().with_array(B.array("P", 4, 4, temp=True))
        layout = MemoryLayout.build(k, {"N": 8})
        assert "P" in layout.arrays

    def test_padding_changes_stride(self):
        base = MemoryLayout.build(matmul(), {"N": 16})
        padded = MemoryLayout.build(pad_arrays(matmul(), {"A": 4}), {"N": 16})
        assert padded["A"].strides[1] == 20
        assert base["A"].strides[1] == 16

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            MemoryLayout.build(matmul(), {"N": 0})

    def test_address_zero_unused(self):
        layout = MemoryLayout.build(matmul(), {"N": 4})
        assert all(arr.base > 0 for arr in layout.arrays.values())
