"""End-to-end chaos: faulted sweeps, journaled failures and resume."""

import json

import pytest

from repro.core.errors import DeviceError
from repro.harness.sweep import sweep
from repro.resilience import (
    CheckpointJournal,
    FailureRecord,
    FaultPlan,
    FaultRule,
    install_fault_plan,
    request_digest,
)

from chaos_utils import FAST

CHAOS_PLAN = FaultPlan(seed=7, rules=(
    FaultRule(site="transfer.h2d", indices=(0,)),
    FaultRule(site="launch", indices=(2,)),
    FaultRule(site="corrupt.d2h", indices=(1,)),
))


def chaos_sweep():
    return sweep(L=[18, 20, 22])


def run_clean(stencil):
    return chaos_sweep().run_workload(stencil, cache=False, verify=True,
                                      protocol=FAST)


def assert_matches_clean(results, clean):
    assert len(results) == len(clean) == 3
    for survived, reference in zip(results, clean):
        assert survived.verification.passed
        assert survived.metrics == reference.metrics
        assert survived.samples == reference.samples


class TestResilientSweep:
    def test_chaos_sweep_is_bit_identical_to_clean(self, stencil, tmp_path):
        # inject -> journal -> resume: the faulted requests are journaled as
        # failed, and a resume without the plan re-runs only those
        path = str(tmp_path / "chaos.jsonl")
        clean = run_clean(stencil)
        with install_fault_plan(CHAOS_PLAN) as injector:
            chaotic = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="skip", checkpoint=path)
        assert injector.stats()["total_fired"] >= 2
        assert any(isinstance(r, FailureRecord) or not r.verification.passed
                   for r in chaotic)
        journal = CheckpointJournal(path)
        journaled_ok = journal.summary()["completed"]
        assert journaled_ok < 3
        resumed = chaos_sweep().run_workload(
            stencil, cache=False, verify=True, protocol=FAST,
            checkpoint=journal)
        assert journal.served == journaled_ok
        assert_matches_clean(resumed, clean)

    def test_on_error_skip_keeps_sweep_order(self, stencil):
        # one fault on the second configuration's H2D: that slot
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

    def test_threaded_sweep_with_checkpoint_and_resume(self, stencil,
                                                      tmp_path):
        path = str(tmp_path / "threaded.jsonl")
        clean = run_clean(stencil)
        with install_fault_plan(CHAOS_PLAN):
            chaos_sweep().run_workload(
                stencil, workers=2, cache=False, verify=True, protocol=FAST,
                on_error="skip", checkpoint=path)
        resumed = chaos_sweep().run_workload(
            stencil, workers=2, cache=False, verify=True, protocol=FAST,
            checkpoint=path)
        assert_matches_clean(resumed, clean)
        assert CheckpointJournal(path).summary()["completed"] == 3

    def test_failed_verification_is_journaled_as_failed(self, stencil,
                                                        tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        plan = FaultPlan(rules=(FaultRule(site="corrupt.d2h", indices=(1,)),))
        with install_fault_plan(plan):
            results = chaos_sweep().run_workload(
                stencil, cache=False, verify=True, protocol=FAST,
                on_error="skip", checkpoint=path)
        # the wrong answer stays in the results, where callers read it ...
        assert results[1].verification.ran
        assert not results[1].verification.passed
        # ... but the journal holds it as failed, so a resume re-runs it
        journal = CheckpointJournal(path)
        assert journal.summary()["completed"] == 2
        [failure] = journal.failures()
        assert failure.error_type == "VerificationError"
        assert failure.digest == request_digest(results[1].request)
        resumed = chaos_sweep().run_workload(
            stencil, cache=False, verify=True, protocol=FAST,
            checkpoint=journal)
        assert journal.served == 2
        assert_matches_clean(resumed, run_clean(stencil))


class TestCheckpointedSweep:
    def test_interrupted_sweep_resumes_without_rerunning(self, stencil,
                                                         tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        first = chaos_sweep().run_workload(
            stencil, cache=False, verify=True, protocol=FAST, checkpoint=path)
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

        journal = CheckpointJournal(path)
        assert journal.summary()["completed"] == 2
        assert journal.summary()["failed"] == 1
        # the failed slot is re-attempted on resume — and succeeds now that
        # the fault plan is gone
        resumed = chaos_sweep().run_workload(
            stencil, cache=False, verify=True, protocol=FAST,
            checkpoint=path, resume=True)
        assert all(r.verification.passed for r in resumed)

    def test_journal_with_a_stage_field_resumes_only_the_failed(
            self, stencil, tmp_path, monkeypatch):
        # Journals written before FailureRecord lost its ``stage`` field
        # carry ``"stage": "run"`` on every failed entry.
        requests = list(chaos_sweep().requests(stencil, verify=True,
                                               protocol=FAST))
        lines = [{"schema": "repro.sweep-checkpoint/v1", "status": "ok",
                  "digest": request_digest(r), "workload": "stencil",
                  "result": stencil.run(r).as_dict()}
                 for r in requests[:2]]
        failed = requests[2]
        lines.append({
            "schema": "repro.sweep-checkpoint/v1", "status": "failed",
            "digest": request_digest(failed), "workload": "stencil",
            "failure": {"workload": "stencil",
                        "digest": request_digest(failed),
                        "request": failed.as_dict(),
                        "error_type": "DeviceError", "message": "boom",
                        "stage": "run", "attempts": 1}})
        path = tmp_path / "sweep.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))

        calls = []
        real_run = type(stencil).run
        monkeypatch.setattr(
            type(stencil), "run",
            lambda self, r: calls.append(r) or real_run(self, r))
        results = chaos_sweep().run_workload(stencil, cache=False,
                                             verify=True, protocol=FAST,
                                             checkpoint=str(path),
                                             resume=True)
        assert calls == [failed]
        assert all(r.verification.passed for r in results)
