"""Array padding tests (the §4.2 stabilization extension)."""

import numpy as np
import pytest

from repro.codegen.interp import allocate_arrays, run_kernel
from repro.kernels import jacobi, matmul
from repro.machines import get_machine
from repro.sim import execute
from repro.transforms import TransformError
from repro.transforms.padding import pad_arrays


class TestPadArrays:
    def test_shapes_widen(self):
        mm = matmul()
        padded = pad_arrays(mm, {"A": 4, "C": 2})
        assert padded.array("A").shape[0].evaluate({"N": 8}) == 12
        assert padded.array("B").shape[0].evaluate({"N": 8}) == 8
        assert padded.array("C").shape[0].evaluate({"N": 8}) == 10

    def test_zero_pad_is_identity_decl(self):
        mm = matmul()
        assert pad_arrays(mm, {"A": 0}).array("A") == mm.array("A")

    def test_unknown_array(self):
        with pytest.raises(TransformError, match="unknown array"):
            pad_arrays(matmul(), {"Z": 4})

    def test_negative_pad(self):
        with pytest.raises(TransformError, match="negative"):
            pad_arrays(matmul(), {"A": -1})

    def test_bad_dimension(self):
        from repro.kernels import matvec

        with pytest.raises(TransformError, match="dimension"):
            pad_arrays(matvec(), {"x": 2}, dim=1)

    def test_semantics_preserved_in_active_region(self):
        """Running the padded kernel on embedded data gives identical
        results in the unpadded region."""
        mm = matmul()
        padded = pad_arrays(mm, {"A": 3, "B": 3, "C": 3})
        n = 6
        arrays = allocate_arrays(mm, {"N": n}, seed=5)
        ref = run_kernel(mm, {"N": n}, arrays)
        embedded = {}
        for name, data in arrays.items():
            wide = np.zeros((n + 3, n), order="F")
            wide[:n, :] = data
            embedded[name] = wide
        out = run_kernel(padded, {"N": n}, embedded)
        np.testing.assert_array_equal(out["C"][:n, :], ref["C"])

    def test_padding_changes_simulated_layout(self):
        mm = matmul()
        machine = get_machine("sgi")
        base = execute(mm, {"N": 32}, machine)
        padded = execute(pad_arrays(mm, {"A": 4, "B": 4, "C": 4}), {"N": 32}, machine)
        assert padded.cycles != base.cycles  # layout actually moved


class TestSearchPadding:
    def test_padding_stage_disabled_by_default(self):
        from repro.core import EcoOptimizer, SearchConfig

        machine = get_machine("sgi")
        eco = EcoOptimizer(jacobi(), machine, SearchConfig(full_search_variants=1))
        tuned = eco.optimize({"N": 12})
        assert tuned.result.pads == {}

    def test_padding_stage_can_help_jacobi_at_power_of_two(self):
        """With padding enabled, tuning Jacobi at a pathological size finds
        pads (or at worst changes nothing) and never hurts."""
        from repro.core import EcoOptimizer, SearchConfig

        machine = get_machine("sgi")
        plain = EcoOptimizer(
            jacobi(), machine, SearchConfig(full_search_variants=1)
        ).optimize({"N": 16})
        padded = EcoOptimizer(
            jacobi(), machine,
            SearchConfig(full_search_variants=1, search_padding=True),
        ).optimize({"N": 16})
        assert padded.result.counters.cycles <= plain.result.counters.cycles
        built = padded.build()  # pads must apply to the built kernel
        if padded.result.pads:
            name = next(iter(padded.result.pads))
            assert built.array(name).shape[0] != jacobi().array(name).shape[0]
