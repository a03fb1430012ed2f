"""Retry + degradation ladder: recovered runs must be bit-identical."""

import pytest

from repro.core.errors import DeviceError, LaunchError
from repro.resilience import (
    FaultPlan,
    FaultRule,
    RetryPolicy,
    degradation_ladder,
    install_fault_plan,
    resilient_runner,
    run_resilient,
)

from chaos_utils import stencil_request


def assert_bit_identical(a, b):
    assert a.metrics == b.metrics
    assert a.samples == b.samples
    assert a.verification.passed == b.verification.passed
    assert a.verification.max_rel_error == b.verification.max_rel_error


class TestDegradationLadder:
    def test_untuned_request_downgrades_executor_only(self, stencil):
        request = stencil_request(stencil)
        steps = degradation_ladder(request)
        assert [s.executor for s in steps] == \
            ["auto", "vectorized", "cooperative", "sequential"]
        assert all(s.tune == "off" for s in steps)

    def test_lowered_request_degrades_like_auto(self, stencil):
        request = stencil_request(stencil, executor="lowered")
        steps = degradation_ladder(request)
        assert [s.executor for s in steps] == \
            ["lowered", "vectorized", "cooperative", "sequential"]

    def test_tuned_request_drops_tuning_first(self, stencil):
        request = stencil_request(stencil, tune="cached")
        steps = degradation_ladder(request)
        assert steps[0].tune == "cached"
        assert [s.tune for s in steps[1:]] == ["off"] * (len(steps) - 1)
        assert [s.executor for s in steps[1:]] == \
            ["auto", "vectorized", "cooperative", "sequential"]

    def test_sequential_has_nowhere_to_go(self, stencil):
        request = stencil_request(stencil, executor="sequential")
        assert degradation_ladder(request) == [request]


class TestRunResilient:
    def test_clean_run_records_single_attempt(self, stencil):
        request = stencil_request(stencil)
        result = run_resilient(stencil, request, retry=RetryPolicy(
            max_attempts=3, sleep=lambda s: None))
        record = result.provenance["resilience"]
        assert record["attempts"] == 1
        assert not record["retried"] and not record["degraded"]
        assert record["ran"] == {"executor": "auto", "tune": "off"}
        assert record["history"] == []

    def test_transfer_fault_retried_bit_identical(self, stencil):
        request = stencil_request(stencil)
        clean = stencil.run(request)
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),))
        with install_fault_plan(plan):
            recovered = run_resilient(
                stencil, request,
                retry=RetryPolicy(max_attempts=3, sleep=lambda s: None))
        record = recovered.provenance["resilience"]
        assert record["attempts"] == 2 and record["retried"]
        assert not record["degraded"]
        assert record["history"][0]["error_type"] == "DeviceError"
        assert_bit_identical(recovered, clean)

    def test_corruption_surfaces_as_verification_retry(self, stencil):
        request = stencil_request(stencil)
        clean = stencil.run(request)
        plan = FaultPlan(rules=(
            FaultRule(site="corrupt.d2h", indices=(0,)),))
        with install_fault_plan(plan):
            recovered = run_resilient(
                stencil, request,
                retry=RetryPolicy(max_attempts=3, sleep=lambda s: None))
        record = recovered.provenance["resilience"]
        assert record["retried"]
        assert record["history"][0]["error_type"] == "VerificationError"
        assert recovered.verification.passed
        assert_bit_identical(recovered, clean)

    def test_persistent_vectorized_fault_degrades_executor(self, stencil):
        request = stencil_request(stencil, executor="vectorized")
        clean = stencil.run(request)
        # launch.vectorized fires on every vectorized dispatch but never in
        # the cooperative/sequential interpreters: retries on step 0 are
        # futile, the ladder's executor fallback is the only way through.
        plan = FaultPlan(rules=(
            FaultRule(site="launch.vectorized", probability=1.0),))
        with install_fault_plan(plan):
            recovered = run_resilient(
                stencil, request,
                retry=RetryPolicy(max_attempts=2, sleep=lambda s: None))
        record = recovered.provenance["resilience"]
        assert record["degraded"]
        assert record["ran"]["executor"] == "cooperative"
        assert record["requested"]["executor"] == "vectorized"
        assert record["attempts"] == 3  # 2 on vectorized + 1 on cooperative
        assert_bit_identical(recovered, clean)

    def test_persistent_lowered_fault_degrades_auto_to_vectorized(self,
                                                                  stencil):
        request = stencil_request(stencil)
        clean = stencil.run(request)
        # launch.lowered fires on every lowered dispatch: the default auto
        # request lowers the stencil, so the ladder must step down to the
        # lockstep interpreter, which never fires the site.
        plan = FaultPlan(rules=(
            FaultRule(site="launch.lowered", probability=1.0),))
        with install_fault_plan(plan) as injector:
            recovered = run_resilient(
                stencil, request,
                retry=RetryPolicy(max_attempts=2, sleep=lambda s: None))
        record = recovered.provenance["resilience"]
        assert record["degraded"]
        assert record["requested"]["executor"] == "auto"
        assert record["ran"]["executor"] == "vectorized"
        assert record["attempts"] == 3  # 2 on auto + 1 on vectorized
        assert injector.stats()["fired"] == {"launch.lowered": 2}
        assert_bit_identical(recovered, clean)

    def test_degrade_false_exhausts_and_raises(self, stencil):
        request = stencil_request(stencil)
        plan = FaultPlan(rules=(
            FaultRule(site="launch", probability=1.0),))
        with install_fault_plan(plan):
            with pytest.raises(LaunchError):
                run_resilient(stencil, request,
                              retry=RetryPolicy(max_attempts=2,
                                                sleep=lambda s: None),
                              degrade=False)

    def test_no_retry_single_attempt_propagates(self, stencil):
        request = stencil_request(stencil)
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", probability=1.0),))
        with install_fault_plan(plan):
            with pytest.raises(DeviceError):
                run_resilient(stencil, request, degrade=False)

    def test_int_retry_is_accepted(self, stencil):
        request = stencil_request(stencil)
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),))
        with install_fault_plan(plan):
            recovered = run_resilient(stencil, request, retry=2)
        assert recovered.provenance["resilience"]["attempts"] == 2

    def test_stuck_verification_returns_flagged_fallback(self, stencil):
        request = stencil_request(stencil)
        # corrupt every D2H on every executor: no ladder step can recover,
        # but the run *completed*, so the flagged result beats an exception
        plan = FaultPlan(rules=(
            FaultRule(site="corrupt.d2h", probability=1.0),))
        with install_fault_plan(plan):
            result = run_resilient(
                stencil, request,
                retry=RetryPolicy(max_attempts=2, sleep=lambda s: None))
        record = result.provenance["resilience"]
        assert record["verification_failed"]
        assert not result.verification.passed
        assert len(record["history"]) == record["attempts"]

    def test_runner_is_plain_run_without_retry_or_timeout(self, stencil):
        assert resilient_runner(stencil) == stencil.run
        assert resilient_runner(stencil, retry=2) != stencil.run
        assert resilient_runner(stencil, timeout_ms=1e3) != stencil.run

    def test_workload_facade(self, stencil):
        request = stencil_request(stencil)
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),))
        with install_fault_plan(plan):
            result = run_resilient(stencil, request, retry=3)
        assert result.provenance["resilience"]["retried"]
        assert result.verification.passed

    def test_deadline_exceeded_is_retried(self, stencil, monkeypatch):
        import time

        request = stencil_request(stencil)
        real_run = type(stencil).run
        calls = []

        def slow_once(self, req):
            calls.append(1)
            if len(calls) == 1:
                # This attempt is abandoned by the 100 ms deadline; its
                # return value is discarded.  Do NOT run the real workload
                # here: the orphaned worker thread would keep issuing
                # device transfers in the background and consume the
                # global fault-injection occurrence indices a later
                # test's plan keys on.
                time.sleep(0.2)
                return None
            return real_run(self, req)

        monkeypatch.setattr(type(stencil), "run", slow_once)
        result = run_resilient(
            stencil, request,
            retry=RetryPolicy(max_attempts=3, sleep=lambda s: None),
            timeout_ms=100.0)
        record = result.provenance["resilience"]
        assert record["attempts"] == 2
        assert record["history"][0]["error_type"] == "DeadlineExceeded"
        assert record["timeout_ms"] == 100.0
        assert result.verification.passed
