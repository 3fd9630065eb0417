"""Dependence analysis tests on the paper's kernels and synthetic nests."""

import random

import pytest

from repro.analysis.dependence import (
    _solve_uniform,
    _solve_uniform_cached,
    compute_dependences,
    permutation_legal,
    tiling_legal,
    unroll_and_jam_legal,
)
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.kernels import jacobi, matmul

N = Var("N")
I, J, K = Var("I"), Var("J"), Var("K")


def _deps_on(deps, array):
    return [d for d in deps if d.source.array == array]


class TestMatmulDependences:
    def test_only_c_has_dependences(self):
        deps = compute_dependences(matmul())
        assert {d.source.array for d in deps} == {"C"}

    def test_c_dependence_carried_by_k_only(self):
        deps = compute_dependences(matmul())
        for dep in deps:
            # loops are (K, J, I); distance free along K, zero along J and I
            assert dep.loops == ("K", "J", "I")
            assert dep.entries == (None, 0, 0)

    def test_all_kinds_present(self):
        kinds = {d.kind for d in compute_dependences(matmul())}
        assert kinds == {"flow", "anti", "output"}

    def test_any_permutation_legal(self):
        deps = compute_dependences(matmul())
        for order in [("K", "J", "I"), ("I", "J", "K"), ("J", "I", "K"), ("K", "I", "J")]:
            assert permutation_legal(deps, order)

    def test_all_loops_tilable(self):
        deps = compute_dependences(matmul())
        assert tiling_legal(deps, ("K", "J", "I"))

    def test_unroll_and_jam_legal_everywhere(self):
        deps = compute_dependences(matmul())
        for loop in ("K", "J"):
            assert unroll_and_jam_legal(deps, loop)


class TestJacobiDependences:
    def test_jacobi_has_no_loop_carried_dependences(self):
        # A is only written; B is only read; different arrays.
        deps = compute_dependences(jacobi())
        for dep in deps:
            assert dep.entries == (0, 0, 0), str(dep)

    def test_jacobi_fully_permutable(self):
        deps = compute_dependences(jacobi())
        assert tiling_legal(deps, ("K", "J", "I"))
        assert permutation_legal(deps, ("I", "J", "K"))


class TestSyntheticDependences:
    def _nest(self, stmt_target, stmt_value, arrays=None):
        arrays = arrays or (B.array("A", N, N),)
        return B.kernel(
            "t",
            params=("N",),
            arrays=arrays,
            body=B.loop("J", 2, N - 1, B.loop("I", 2, N - 1, B.assign(stmt_target, stmt_value))),
        )

    def test_forward_distance(self):
        # A[I,J] = A[I-1,J]: flow dependence distance (J,I) = (0,1)
        k = self._nest(B.aref("A", I, J), B.read("A", I - 1, J) + 0.0)
        deps = compute_dependences(k)
        entries = {d.entries for d in deps}
        assert (0, 1) in entries

    def test_interchange_illegal_for_skewed_dependence(self):
        # A[I,J] = A[I-1,J+1]: distance (J,I) = (-1,1)/(1,-1) pair; swapping
        # I and J reverses the (1,-1) dependence.
        k = self._nest(B.aref("A", I, J), B.read("A", I - 1, J + 1) + 0.0)
        deps = compute_dependences(k)
        assert not permutation_legal(deps, ("I", "J"))
        assert permutation_legal(deps, ("J", "I"))

    def test_skewed_dependence_blocks_tiling(self):
        k = self._nest(B.aref("A", I, J), B.read("A", I - 1, J + 1) + 0.0)
        deps = compute_dependences(k)
        assert not tiling_legal(deps, ("J", "I"))

    def test_dependence_runs_from_the_access_that_runs_first(self):
        # A[I,J] = A[I-1,J]: the write at I is read one I iteration later
        k = self._nest(B.aref("A", I, J), B.read("A", I - 1, J) + 0.0)
        flow = [d for d in compute_dependences(k) if d.kind == "flow"]
        assert [(str(d.source), str(d.sink), d.entries) for d in flow] == [
            ("A[I,J]", "A[(I - 1),J]", (0, 1))
        ]

    def test_same_subscript_in_two_statements_is_not_a_reduction(self):
        # X[I] = B[I]; A[I,J] = X[I]: a temporary, not an accumulation
        k = B.kernel(
            "t",
            params=("N",),
            arrays=(B.array("A", N, N), B.array("B", N), B.array("X", N)),
            body=B.loop(
                "J", 1, N,
                B.loop(
                    "I", 1, N,
                    B.assign(B.aref("X", I), B.read("B", I) + 0.0),
                    B.assign(B.aref("A", I, J), B.read("X", I) + 0.0),
                ),
            ),
        )
        deps = [d for d in compute_dependences(k) if d.source.array == "X"]
        assert {d.statements for d in deps} >= {(0, 1), (1, 0)}
        assert not any(d.reduction for d in deps)
        # jamming J would run the second copy's write before the first's read
        assert not unroll_and_jam_legal(deps, "J", allow_reassociation=True)
        assert unroll_and_jam_legal(deps, "I", allow_reassociation=True)

    def test_unroll_and_jam_illegal_on_reversal(self):
        # Dependence (1,-1) carried by J with negative inner entry: jamming J
        # would run the I iterations in the wrong order.
        k = self._nest(B.aref("A", I, J), B.read("A", I + 1, J - 1) + 0.0)
        deps = compute_dependences(k)
        assert not unroll_and_jam_legal(deps, "J")

    def test_unroll_and_jam_legal_plain_shift(self):
        k = self._nest(B.aref("A", I, J), B.read("A", I, J - 1) + 0.0)
        deps = compute_dependences(k)
        assert unroll_and_jam_legal(deps, "J")

    def test_no_dependence_between_disjoint_offsets(self):
        # A[2I] = A[2I-1]: GCD test excludes equal subscripts.
        k = B.kernel(
            "t",
            params=("N",),
            arrays=(B.array("A", 3 * N),),
            body=B.loop("I", 1, N, B.assign(B.aref("A", 2 * I), B.read("A", 2 * I - 1) + 0.0)),
        )
        assert compute_dependences(k) == []

    def test_read_read_pairs_ignored(self):
        k = self._nest(
            B.aref("A", I, J),
            B.read("B", I - 1, J) + B.read("B", I + 1, J),
            arrays=(B.array("A", N, N), B.array("B", N, N)),
        )
        deps = compute_dependences(k)
        assert all(d.source.array != "B" for d in deps)

    def test_nonaffine_subscript_conservative(self):
        k = B.kernel(
            "t",
            params=("N",),
            arrays=(B.array("A", N * N),),
            body=B.loop(
                "J", 1, N,
                B.loop("I", 1, N, B.assign(B.aref("A", I * J), B.read("A", I * J) + 1.0)),
            ),
        )
        deps = compute_dependences(k)
        assert deps and all(e is None for d in deps for e in d.entries)
        assert not tiling_legal(deps, ("J", "I"))

    def test_scalar_reduction_target_not_blocking(self):
        # Reductions into scalars are not array dependences.
        k = B.kernel(
            "t",
            params=("N",),
            arrays=(B.array("A", N),),
            body=B.loop(
                "I", 1, N,
                B.assign("s", B.num(0.0)),
                B.assign(B.aref("A", I), B.scalar("s")),
            ),
        )
        assert compute_dependences(k) == []


class TestSolveUniformMemo:
    @staticmethod
    def _uncached(matrix, delta, nloops):
        solved = _solve_uniform_cached.__wrapped__(
            tuple(tuple(row) for row in matrix), tuple(delta), nloops
        )
        return None if solved is None else (list(solved[0]), solved[1])

    def test_memo_equals_uncached_solve(self):
        rng = random.Random(14)
        for _ in range(400):
            nloops = rng.randint(1, 4)
            matrix = [
                [rng.randint(-2, 2) for _ in range(nloops)]
                for _ in range(rng.randint(1, 3))
            ]
            delta = [rng.randint(-3, 3) for _ in matrix]
            expected = self._uncached(matrix, delta, nloops)
            assert _solve_uniform(matrix, delta, nloops) == expected
            # the second call is answered from the memo
            assert _solve_uniform(matrix, delta, nloops) == expected

    def test_mutating_an_answer_does_not_poison_the_memo(self):
        matrix, delta = [[1, 0, 0], [0, 1, 0]], [2, 0]
        entries, exact = _solve_uniform(matrix, delta, 3)
        assert (entries, exact) == ([2, 0, None], True)
        entries[0] = 99
        entries.append(7)
        assert _solve_uniform(matrix, delta, 3) == ([2, 0, None], True)

    def test_memo_is_bounded(self):
        assert _solve_uniform_cached.cache_info().maxsize is not None
