"""Optimization report tests."""

import importlib

import pytest

from repro.core import EcoOptimizer, SearchConfig, explain
from repro.kernels import matvec
from repro.machines import get_machine


@pytest.fixture(scope="module")
def tuned():
    machine = get_machine("sgi")
    return EcoOptimizer(
        matvec(), machine, SearchConfig(full_search_variants=1)
    ).optimize({"N": 48})


class TestExplain:
    def test_report_sections(self, tuned):
        text = explain(tuned)
        assert "Optimization report: matvec" in text
        assert "Selected v" in text
        assert "Chosen parameters" in text
        assert "Search:" in text
        assert "Measured at" in text
        assert "MFLOPS" in text

    def test_constraints_substituted(self, tuned):
        text = explain(tuned)
        assert "[ok]" in text
        assert "VIOLATED" not in text

    def test_counter_table_has_all_rows(self, tuned):
        text = explain(tuned)
        for label in ("loads", "L1 misses", "L2 misses", "TLB misses", "cycles"):
            assert label in text

    def test_explicit_problem_size(self, tuned):
        text = explain(tuned, {"N": 32})
        assert "{'N': 32}" in text

    def test_speedup_reported(self, tuned):
        text = explain(tuned)
        assert "x" in text.splitlines()[-2]  # the MFLOPS speedup line


class TestExplainSimulations:
    """The search already measured its winner at the tuning size, so
    the report simulates only the naive kernel there."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # ``repro.core.explain`` the attribute is the function, so the
        # module comes from the import system
        eco = importlib.import_module("repro.core.eco")
        explain_module = importlib.import_module("repro.core.explain")
        calls = []

        def counting(real):
            def execute(kernel, params, machine, **kwargs):
                calls.append(dict(params))
                return real(kernel, params, machine, **kwargs)
            return execute

        monkeypatch.setattr(explain_module, "execute",
                            counting(explain_module.execute))
        monkeypatch.setattr(eco, "execute", counting(eco.execute))
        return calls

    def test_tuned_size_reuses_the_winners_counters(self, tuned, calls):
        text = explain(tuned)
        assert calls == [{"N": 48}]
        assert f"{int(tuned.result.counters.cycles):,}" in text

    def test_other_size_simulates_both(self, tuned, calls):
        explain(tuned, {"N": 32})
        assert calls == [{"N": 32}, {"N": 32}]
