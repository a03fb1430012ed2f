"""End-to-end chaos: resilient sweeps, checkpoint resume, async cancellation."""

import asyncio
import threading
import time

import pytest

from repro.core.errors import DeviceError
from repro.harness.sweep import sweep
from repro.resilience import (
    CircuitBreaker,
    FailureRecord,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    install_fault_plan,
)
from repro.tuning.db import TuningDB
from repro.workloads.cache import ResultCache

from chaos_utils import FAST

CHAOS_PLAN = FaultPlan(seed=7, rules=(
    FaultRule(site="transfer.h2d", indices=(0,)),
    FaultRule(site="launch", indices=(2,)),
    FaultRule(site="corrupt.d2h", indices=(1,)),
))

RETRY = RetryPolicy(max_attempts=3, sleep=lambda s: None)


def chaos_sweep():
    return sweep(L=[18, 20, 22])


def run_clean(stencil):
    return chaos_sweep().run_workload(stencil, cache=False, verify=True,
                                      protocol=FAST)


class TestResilientSweep:
    def test_chaos_sweep_is_bit_identical_to_clean(self, stencil):
        clean = run_clean(stencil)
        with install_fault_plan(CHAOS_PLAN) as injector:
            chaotic = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="retry", retry=RETRY)
        assert injector.stats()["total_fired"] == 3
        assert len(chaotic) == len(clean) == 3
        for survived, reference in zip(chaotic, clean):
            assert survived.verification.passed
            assert survived.metrics == reference.metrics
            assert survived.samples == reference.samples
        assert sum(1 for r in chaotic
                   if r.provenance.get("resilience", {}).get("retried")) >= 1

    def test_on_error_skip_keeps_sweep_order(self, stencil):
        # one unretried fault on the second configuration's H2D: that slot
        # becomes a FailureRecord, the neighbours complete normally
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(1,)),))
        with install_fault_plan(plan):
            results = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="skip")
        assert len(results) == 3
        assert results[0].verification.passed
        assert isinstance(results[1], FailureRecord)
        assert results[1].error_type == "DeviceError"
        assert results[2].verification.passed

    def test_on_error_raise_propagates(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),))
        with install_fault_plan(plan):
            with pytest.raises(DeviceError):
                chaos_sweep().run_workload(stencil, cache=False, verify=True,
                                           protocol=FAST)

    def test_default_keywords_change_nothing(self, stencil):
        plain = chaos_sweep().run_workload(stencil, cache=False, verify=True,
                                           protocol=FAST)
        for result in plain:
            assert "resilience" not in result.provenance

    def test_circuit_breaker_fails_fast(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", probability=1.0),))
        breaker = CircuitBreaker(threshold=1, cooldown_s=1000)
        with install_fault_plan(plan) as injector:
            results = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="skip", breaker=breaker)
        assert all(isinstance(r, FailureRecord) for r in results)
        assert results[0].stage == "run"
        assert [r.stage for r in results[1:]] == ["circuit-open"] * 2
        # the open circuit stopped the later requests before the substrate
        assert injector.stats()["occurrences"]["transfer.h2d"] == 1


class TestCheckpointedSweep:
    def test_interrupted_sweep_resumes_without_rerunning(self, stencil,
                                                         tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        with install_fault_plan(CHAOS_PLAN):
            first = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="retry", retry=RETRY, checkpoint=path)
        assert all(r.verification.passed for r in first)

        calls = []
        real_run = type(stencil).run

        def spy(self, request):
            calls.append(request)
            return real_run(self, request)

        monkeypatch.setattr(type(stencil), "run", spy)
        resumed = chaos_sweep().run_workload(
            stencil, cache=False, verify=True, protocol=FAST,
            checkpoint=path, resume=True)
        assert calls == []  # every request answered from the journal
        for replayed, original in zip(resumed, first):
            assert replayed.metrics == original.metrics
            assert replayed.samples == original.samples

    def test_partial_journal_reruns_only_the_missing(self, stencil, tmp_path,
                                                     monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        sweep(L=[18, 20]).run_workload(stencil, cache=False, verify=True,
                                       protocol=FAST, checkpoint=path)
        calls = []
        real_run = type(stencil).run
        monkeypatch.setattr(
            type(stencil), "run",
            lambda self, r: calls.append(r) or real_run(self, r))
        results = chaos_sweep().run_workload(stencil, cache=False,
                                             verify=True, protocol=FAST,
                                             checkpoint=path, resume=True)
        assert len(results) == 3
        assert [r.params["L"] for r in calls] == [22]

    def test_resume_false_reruns_everything(self, stencil, tmp_path,
                                            monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        sweep(L=[18, 20]).run_workload(stencil, cache=False, verify=True,
                                       protocol=FAST, checkpoint=path)
        calls = []
        real_run = type(stencil).run
        monkeypatch.setattr(
            type(stencil), "run",
            lambda self, r: calls.append(r) or real_run(self, r))
        sweep(L=[18, 20]).run_workload(stencil, cache=False, verify=True,
                                       protocol=FAST, checkpoint=path,
                                       resume=False)
        assert len(calls) == 2

    def test_journal_records_failures(self, stencil, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(1,)),))
        with install_fault_plan(plan):
            results = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="skip", checkpoint=path)
        assert isinstance(results[1], FailureRecord)

        from repro.resilience import CheckpointJournal

        journal = CheckpointJournal(path)
        assert journal.summary()["completed"] == 2
        assert journal.summary()["failed"] == 1
        # the failed slot is re-attempted on resume — and succeeds now that
        # the fault plan is gone
        resumed = chaos_sweep().run_workload(
            stencil, cache=False, verify=True, protocol=FAST,
            checkpoint=path, resume=True)
        assert all(r.verification.passed for r in resumed)


class TestAsyncResilience:
    def test_async_sweep_with_retries_and_checkpoint(self, stencil, tmp_path):
        path = str(tmp_path / "async.jsonl")
        clean = run_clean(stencil)
        with install_fault_plan(CHAOS_PLAN):
            chaotic = asyncio.run(chaos_sweep().run_workload_async(
                stencil, workers=2, cache=False, verify=True, protocol=FAST,
                on_error="retry", retry=RETRY, checkpoint=path))
        assert len(chaotic) == 3
        for survived, reference in zip(chaotic, clean):
            assert survived.verification.passed
            assert survived.metrics == reference.metrics

        from repro.resilience import CheckpointJournal

        assert CheckpointJournal(path).summary()["completed"] == 3

    def test_cancellation_leaves_no_residue(self, stencil, monkeypatch,
                                            tmp_path):
        """Cancel mid-sweep: single-flight table drains, the tuning DB stays
        consistent, and the next run re-executes cleanly."""
        import repro.workloads.cache as cache_mod

        isolated = ResultCache()
        monkeypatch.setattr(cache_mod, "_default_cache", isolated)
        db = TuningDB(disk_dir=str(tmp_path / "tune"))
        started = threading.Event()
        real_run = type(stencil).run

        def slow_run(self, request):
            started.set()
            time.sleep(0.05)
            return real_run(self, request)

        monkeypatch.setattr(type(stencil), "run", slow_run)

        async def interrupt():
            task = asyncio.create_task(
                sweep(L=[18, 20, 22, 24]).run_workload_async(
                    stencil, workers=2, verify=True, protocol=FAST))
            await asyncio.to_thread(started.wait, 2.0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(interrupt())  # joins the executor threads on shutdown
        assert isolated.memo._flights == {}
        assert db.memo.cache_info().entries == 0  # untouched by the sweep

        monkeypatch.setattr(type(stencil), "run", real_run)
        rerun = asyncio.run(sweep(L=[18, 20, 22, 24]).run_workload_async(
            stencil, workers=2, verify=True, protocol=FAST))
        assert len(rerun) == 4
        assert all(r.verification.passed for r in rerun)
        assert isolated.memo._flights == {}
