"""Tests for sweeps, text plotting and the transcribed paper data."""

import pytest

from repro.core.errors import ConfigurationError
from repro.harness.plotting import Series, bar_chart, line_chart, series_to_csv
from repro.harness.sweep import Sweep, sweep
from repro.harness.paper_data import (
    TABLE2_STENCIL_NCU,
    TABLE4_HARTREE_FOCK_MS,
    TABLE5_EFFICIENCIES,
    TABLE5_PHI,
)


class TestSweep:
    def test_cartesian_product(self):
        s = sweep(a=[1, 2], b=["x", "y"])
        configs = s.configurations()
        assert len(configs) == 4
        assert {"a": 1, "b": "x"} in configs

    def test_order_is_deterministic(self):
        s = sweep(a=[1, 2], b=[10, 20])
        assert s.configurations() == [
            {"a": 1, "b": 10}, {"a": 1, "b": 20},
            {"a": 2, "b": 10}, {"a": 2, "b": 20},
        ]

    def test_where_filter(self):
        s = sweep(ppwi=[1, 2, 4, 8], wg=[8, 64]).where(lambda c: c["ppwi"] * c["wg"] <= 64)
        assert all(c["ppwi"] * c["wg"] <= 64 for c in s)
        assert len(s) < 8

    def test_chained_filters(self):
        s = sweep(x=[1, 2, 3, 4]).where(lambda c: c["x"] > 1).where(lambda c: c["x"] < 4)
        assert [c["x"] for c in s] == [2, 3]

    def test_run_applies_function(self):
        s = sweep(x=[1, 2, 3])
        assert s.run(lambda x: x * 2) == [2, 4, 6]

    def test_empty_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(x=[])

    def test_duplicate_parameter_rejected(self):
        s = sweep(x=[1])
        with pytest.raises(ConfigurationError):
            s.add("x", [2])

    def test_empty_sweep_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            list(Sweep())


class TestPlotting:
    def test_bar_chart(self):
        chart = bar_chart({"mojo": 3300.0, "cuda": 3400.0}, title="bw", unit=" GB/s")
        assert "mojo" in chart and "#" in chart and "bw" in chart

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            bar_chart({})

    def test_line_chart(self):
        s1 = Series("mojo")
        s2 = Series("cuda")
        for x in (1, 2, 4):
            s1.add(x, x * 10.0)
            s2.add(x, x * 12.0)
        chart = line_chart([s1, s2], title="minibude")
        assert "mojo" in chart and "cuda" in chart

    def test_line_chart_mismatched_x_rejected(self):
        s1, s2 = Series("a"), Series("b")
        s1.add(1, 1.0)
        s2.add(2, 1.0)
        with pytest.raises(ConfigurationError):
            line_chart([s1, s2])

    def test_series_to_csv(self):
        s = Series("mojo")
        s.add(1, 2.0)
        s.add(2, 3.0)
        csv = series_to_csv([s], x_label="ppwi")
        assert csv.splitlines()[0] == "ppwi,mojo"
        assert csv.splitlines()[1] == "1,2.0"


class TestPaperData:
    """Sanity checks on the transcribed paper values."""

    def test_table2_register_counts(self):
        assert TABLE2_STENCIL_NCU[("float64", "mojo")]["registers"] == 24
        assert TABLE2_STENCIL_NCU[("float64", "cuda")]["registers"] == 21

    def test_table4_mojo_faster_on_h100_up_to_256(self):
        for natoms in (64, 128, 256):
            row = TABLE4_HARTREE_FOCK_MS[(natoms, 3)]
            assert row[("h100", "mojo")] < row[("h100", "cuda")]

    def test_table4_mojo_slower_on_mi300a(self):
        for natoms in (64, 128, 256):
            row = TABLE4_HARTREE_FOCK_MS[(natoms, 3)]
            assert row[("mi300a", "mojo")] > 10 * row[("mi300a", "hip")]

    def test_table5_phi_values(self):
        assert TABLE5_PHI == {"stencil": 0.92, "babelstream": 0.96,
                              "minibude": 0.54, "hartreefock": 0.92}

    def test_table5_efficiencies_match_phi(self):
        stencil = TABLE5_EFFICIENCIES["stencil"]
        phi = sum(stencil.values()) / len(stencil)
        assert phi == pytest.approx(TABLE5_PHI["stencil"], abs=0.01)


class TestSweepCountAndWorkers:
    def test_len_without_constraint_builds_no_dicts(self):
        s = sweep(a=[1, 2, 3], b=[10, 20], c=["x", "y"])
        # Poison the constraint-free path: a failing predicate would be
        # called if __len__ materialised configurations.
        assert len(s) == 12

    def test_len_cached(self):
        calls = []
        s = sweep(a=[1, 2, 3, 4]).where(lambda c: calls.append(1) or c["a"] > 1)
        assert len(s) == 3
        first_pass_calls = len(calls)
        assert len(s) == 3
        assert len(calls) == first_pass_calls   # second len() hit the cache

    def test_len_matches_configurations_with_constraint(self):
        s = sweep(ppwi=[1, 2, 4, 8], wg=[8, 64]).where(
            lambda c: c["ppwi"] * c["wg"] <= 64)
        assert len(s) == len(s.configurations())

    def test_len_invalidated_by_add_and_where(self):
        s = sweep(a=[1, 2])
        assert len(s) == 2
        s.add("b", [1, 2, 3])
        assert len(s) == 6
        s.where(lambda c: c["b"] < 3)
        assert len(s) == 4

    def test_len_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            len(Sweep())

    def test_run_workers_preserves_configuration_order(self):
        import time as time_mod

        s = sweep(a=[1, 2, 3, 4], b=[10, 20])

        def fn(a, b):
            # Earlier configurations sleep longer, so completion order is the
            # reverse of submission order.
            time_mod.sleep(0.02 / (a * b))
            return (a, b)

        sequential = s.run(fn)
        concurrent = s.run(fn, workers=4)
        assert concurrent == sequential

    def test_run_workers_propagates_errors(self):
        s = sweep(a=[1, 0, 2])

        def fn(a):
            return 1 // a

        with pytest.raises(ZeroDivisionError):
            s.run(fn, workers=2)
