"""The resilience layer reports itself to the metrics registry.

Chaos runs must be *accountable*: the process-wide counters
(``fault_injections_fired_total``, ``retry_attempts_total``,
``degradation_steps_total``) have to agree exactly with the journaled
per-attempt history each resilient run attaches to its result provenance.
"""

import pytest

from repro.obs.metrics import registry, reset_metrics
from repro.resilience import (
    FaultPlan,
    FaultRule,
    RetryPolicy,
    install_fault_plan,
    run_resilient,
)

from chaos_utils import stencil_request

RETRY = RetryPolicy(max_attempts=3, sleep=lambda s: None)


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_metrics()
    yield
    reset_metrics()


def counters():
    snap = registry().snapshot()["counters"]
    return {name: snap[name] for name in (
        "fault_injections_fired_total",
        "retry_attempts_total",
        "degradation_steps_total",
    )}


def assert_counters_match_journal(result, injector):
    """The registry deltas must equal what the attempt journal implies."""
    record = result.provenance["resilience"]
    got = counters()
    # each ladder step is entered exactly once, so the re-attempt count is
    # total attempts minus the number of steps actually entered
    steps_entered = record["ladder_step"] + 1
    assert got["retry_attempts_total"] == record["attempts"] - steps_entered
    assert got["degradation_steps_total"] == record["ladder_step"]
    assert got["fault_injections_fired_total"] == \
        injector.stats()["total_fired"]


class TestResilientRunCounters:
    def test_clean_run_counts_nothing(self, stencil):
        result = run_resilient(stencil, stencil_request(stencil), retry=RETRY)
        assert result.provenance["resilience"]["attempts"] == 1
        assert all(v == 0 for v in counters().values())

    def test_retried_fault_counts_once(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),))
        with install_fault_plan(plan) as injector:
            result = run_resilient(stencil, stencil_request(stencil),
                                   retry=RETRY)
        record = result.provenance["resilience"]
        assert record["attempts"] == 2 and not record["degraded"]
        assert_counters_match_journal(result, injector)
        assert counters()["retry_attempts_total"] == 1
        assert registry().counter("fault_injections_fired_total",
                                  site="transfer.h2d") == 1.0

    def test_degraded_run_counts_ladder_steps(self, stencil):
        # every launch attempt of the first two ladder steps fails, so the
        # run degrades twice and succeeds on the sequential rung
        plan = FaultPlan(rules=(
            FaultRule(site="launch", indices=(0, 1, 2, 3, 4, 5)),))
        with install_fault_plan(plan) as injector:
            result = run_resilient(stencil, stencil_request(stencil),
                                   retry=RETRY)
        record = result.provenance["resilience"]
        assert record["degraded"]
        assert len(record["history"]) == record["attempts"] - 1
        assert_counters_match_journal(result, injector)

    def test_journal_reconciles_for_any_outcome(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0, 1)),
            FaultRule(site="transfer.d2h", indices=(1,)),
        ))
        with install_fault_plan(plan) as injector:
            result = run_resilient(stencil, stencil_request(stencil),
                                   retry=RETRY)
        assert result.verification.passed
        assert_counters_match_journal(result, injector)
