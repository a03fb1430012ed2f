"""Tests for the profiling substrate (counters, ncu, sass)."""

import pytest

from repro.backends import get_backend
from repro.core.dtypes import DType
from repro.core.kernel import KernelModel, LaunchConfig
from repro.kernels.babelstream import babelstream_kernel_model
from repro.kernels.stencil import stencil_kernel_model, stencil_launch_config
from repro.profiling import (
    NcuReport,
    SassComparison,
    collect_counters,
    compare_sass,
    format_metric_table,
)


def _stencil_run(backend="cuda", gpu="h100"):
    model = stencil_kernel_model(L=512, precision="float64")
    launch = stencil_launch_config(512, (512, 1, 1))
    return get_backend(backend).time(model, gpu, launch)


def _triad_compiled(backend, gpu="h100"):
    model = babelstream_kernel_model("triad", n=2 ** 25, precision="float64")
    launch = LaunchConfig.for_elements(2 ** 25, 1024)
    return get_backend(backend).compile(model, gpu, launch=launch)


class TestCounters:
    def test_collect_counters_basic_fields(self):
        counters = collect_counters(_stencil_run())
        assert counters.kernel_name == "seven_point_stencil"
        assert counters.duration_ms > 0
        assert counters.registers_per_thread == 21
        assert counters.load_global_per_thread == 7
        assert counters.store_global_per_thread == 1

    def test_arithmetic_intensity_hierarchy(self):
        counters = collect_counters(_stencil_run())
        # Cache filtering makes DRAM-level intensity the highest (Table 2).
        assert (counters.dram_arithmetic_intensity
                > counters.l2_arithmetic_intensity
                > counters.l1_arithmetic_intensity)

    def test_stencil_dram_intensity_matches_table2_scale(self):
        counters = collect_counters(_stencil_run())
        assert counters.dram_arithmetic_intensity == pytest.approx(0.62, rel=0.15)

    def test_throughput_percentages_bounded(self):
        counters = collect_counters(_stencil_run("mojo"))
        assert 0 <= counters.compute_throughput_pct <= 100
        assert 0 <= counters.memory_throughput_pct <= 100

    def test_as_dict(self):
        d = collect_counters(_stencil_run()).as_dict()
        assert {"duration_ms", "registers", "ldg", "stg", "backend"} <= set(d)


class TestNcuReport:
    def _report(self):
        report = NcuReport()
        report.add_run("mojo", _stencil_run("mojo"))
        report.add_run("cuda", _stencil_run("cuda"))
        return report

    def test_labels_and_lookup(self):
        report = self._report()
        assert report.labels == ["mojo", "cuda"]
        assert report.get("mojo").backend_name == "mojo"
        with pytest.raises(KeyError):
            report.get("hip")

    def test_rows_cover_table2_metrics(self):
        names = [name for name, _ in self._report().rows()]
        assert "Duration (ms)" in names
        assert "Registers" in names
        assert "L1 ai (FLOP/byte)" in names
        assert "Load Global (LDG)" in names

    def test_markdown_and_text_rendering(self):
        report = self._report()
        md = report.to_markdown()
        txt = report.to_text()
        assert md.startswith("| ncu metric |")
        assert "Registers" in md and "Registers" in txt
        assert "mojo" in md and "cuda" in md

    def test_format_metric_table(self):
        blob = format_metric_table([self._report(), self._report()])
        assert blob.count("ncu metric") == 2


class TestSassComparison:
    def test_paper_observations_hold_for_triad(self):
        comparison = compare_sass(_triad_compiled("mojo"), _triad_compiled("cuda"))
        obs = comparison.observations
        assert obs["fewer_constant_loads"]
        assert obs["fewer_registers_more_int_ops"]
        assert obs["matching_global_accesses"]

    def test_text_rendering(self):
        comparison = compare_sass(_triad_compiled("mojo"), _triad_compiled("cuda"))
        text = comparison.to_text()
        assert "mojo" in text and "cuda" in text
        assert "LDG" in text

    def test_markdown_rendering(self):
        comparison = compare_sass(_triad_compiled("mojo"), _triad_compiled("cuda"))
        md = comparison.to_markdown()
        assert md.startswith("| instruction |")
        assert "registers/thread" in md

    def test_counts_accessor(self):
        comparison = compare_sass(_triad_compiled("mojo"), _triad_compiled("cuda"))
        ldg_mojo, ldg_cuda = comparison.counts("LDG")
        assert ldg_mojo == ldg_cuda == 2.0
