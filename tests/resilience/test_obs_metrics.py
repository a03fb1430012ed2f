"""Fault injection reports itself to the metrics registry.

Chaos runs must be *accountable*: ``fault_injections_fired_total`` and its
per-site children have to agree exactly with what the injector fired.
"""

import pytest

from repro.harness.sweep import sweep
from repro.obs.metrics import registry, reset_metrics
from repro.resilience import FaultPlan, FaultRule, install_fault_plan

from chaos_utils import FAST


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_metrics()
    yield
    reset_metrics()


class TestFaultCounters:
    def test_counter_matches_the_injector(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),
            FaultRule(site="corrupt.d2h", indices=(1,)),
        ))
        with install_fault_plan(plan) as injector:
            sweep(L=[18, 20, 22]).run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="skip")
        fired = injector.stats()["fired"]
        assert fired == {"transfer.h2d": 1, "corrupt.d2h": 1}
        assert registry().counter("fault_injections_fired_total") == 2.0
        for site, count in fired.items():
            assert registry().counter("fault_injections_fired_total",
                                      site=site) == count
