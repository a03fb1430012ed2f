"""Tests for the tuned-vs-untuned portability report."""

import math

import pytest

from repro.core.errors import ReproError
from repro.tuning.db import TuningDB
from repro.tuning.report import PLATFORMS, tuning_report
from repro.workloads.base import Workload


@pytest.fixture(scope="module")
def stencil_report():
    return tuning_report(budget=6, workloads=["stencil"],
                         db=TuningDB(disk_dir=None))


class TestTuningReport:
    def test_one_row_per_platform(self, stencil_report):
        assert [r.platform for r in stencil_report.rows] == \
            [gpu for gpu, _ in PLATFORMS]

    def test_efficiencies_positive_and_finite(self, stencil_report):
        for row in stencil_report.rows:
            assert row.untuned_efficiency > 0
            assert row.tuned_efficiency > 0
            assert math.isfinite(row.tuned_efficiency)

    def test_tuning_improves_the_mojo_side(self, stencil_report):
        # The representative stencil configuration (L=64) is exactly the
        # regime where the hardcoded slab launch wastes threads: tuning
        # must find a real improvement on every platform.
        for row in stencil_report.rows:
            assert row.mojo_speedup >= 1.2

    def test_phi_summary_per_workload(self, stencil_report):
        phis = stencil_report.phis()
        untuned, tuned = phis["stencil"]
        assert untuned > 0 and tuned > 0

    def test_markdown_renders_table_and_phi(self, stencil_report):
        text = stencil_report.to_markdown()
        assert "Tuned performance portability" in text
        assert "| stencil |" in text
        assert "Φ (all)" in text

    def test_as_dict_shape(self, stencil_report):
        payload = stencil_report.as_dict()
        assert payload["budget"] == 6
        assert {"untuned", "tuned"} == set(payload["phi"]["stencil"])


def test_failed_untuned_run_raises(monkeypatch):
    def broken(self, request):
        raise ReproError("injected launch failure")

    monkeypatch.setattr(Workload, "run", broken)
    with pytest.raises(ReproError, match="injected launch failure"):
        tuning_report(budget=2, workloads=["stencil"],
                      db=TuningDB(disk_dir=None))
