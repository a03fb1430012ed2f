"""Functional probe behaviour."""

import pytest

from repro.harness.runner import MeasurementProtocol
from repro.tuning.probe import PROBE_REPEATS, run_probe
from repro.workloads import get_workload

FAST = MeasurementProtocol(warmup=0, repeats=1)


def _request(wl, **overrides):
    fields = dict(params={"L": 20}, verify=False, protocol=FAST)
    fields.update(overrides)
    return wl.make_request(**fields)


class TestRunProbe:
    def test_probe_succeeds_within_budget(self):
        wl = get_workload("stencil")
        probe = run_probe(wl, _request(wl))
        assert probe is not None and probe.ok
        assert probe.replays == PROBE_REPEATS

    def test_workload_without_probe_returns_none(self):
        wl = get_workload("hartreefock")
        request = wl.make_request(verify=False, protocol=FAST)
        if wl.tuning_probe(request) is not None:
            pytest.skip("workload grew a probe; pick another")
        assert run_probe(wl, request) is None
