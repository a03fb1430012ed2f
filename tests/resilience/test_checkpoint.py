"""Checkpoint journal and failure-record units."""

import json

import pytest

from repro.core.errors import ConfigurationError, LaunchError
from repro.resilience import (
    CheckpointJournal,
    FailureRecord,
    checkpointed,
    request_digest,
)
from repro.workloads.cache import ResultCache

from chaos_utils import stencil_request


class TestRequestDigest:
    def test_matches_the_result_cache_key(self, stencil):
        request = stencil_request(stencil)
        assert request_digest(request) == ResultCache.disk_key(request)

    def test_distinct_requests_distinct_digests(self, stencil):
        a = stencil_request(stencil, L=18)
        b = stencil_request(stencil, L=20)
        assert request_digest(a) != request_digest(b)


class TestFailureRecord:
    def test_from_exception_and_round_trip(self, stencil):
        request = stencil_request(stencil)
        record = FailureRecord.from_exception(
            request, LaunchError("kernel died"))
        assert record.ok is False
        assert record.workload == "stencil"
        assert record.error_type == "LaunchError"
        assert record.digest == request_digest(request)
        again = FailureRecord.from_dict(record.as_dict())
        assert again.as_dict() == record.as_dict()
        assert again.ok is False


class TestCheckpointJournal:
    def test_round_trip_through_the_file(self, stencil, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        request = stencil_request(stencil)
        result = stencil.run(request)

        journal = CheckpointJournal(path)
        assert journal.get(request) is None
        journal.record_success(request, result)
        assert journal.completed_count == 1

        resumed = CheckpointJournal(path)
        stored = resumed.get(request)
        assert stored is not None
        assert stored.metrics == result.metrics
        assert stored.samples == result.samples
        assert stored.verification.passed == result.verification.passed

    def test_resume_false_truncates(self, stencil, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        request = stencil_request(stencil)
        CheckpointJournal(path).record_success(request, stencil.run(request))
        fresh = CheckpointJournal(path, resume=False)
        assert fresh.completed_count == 0
        assert fresh.get(request) is None

    def test_torn_tail_line_is_skipped(self, stencil, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        request = stencil_request(stencil)
        CheckpointJournal(path).record_success(request, stencil.run(request))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.sweep-checkpoint/v1", "status": "ok"'
                     ', "dig')  # the process died mid-write
        resumed = CheckpointJournal(path)
        assert resumed.skipped_lines == 1
        assert resumed.get(request) is not None

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": "someone-else/v9",
                                 "digest": "x", "status": "ok"}) + "\n")
        journal = CheckpointJournal(path)
        assert journal.completed_count == 0
        assert journal.skipped_lines == 1

    def test_failed_entries_are_reported_but_rerun(self, stencil, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        request = stencil_request(stencil)
        journal = CheckpointJournal(path)
        failure = FailureRecord.from_exception(request, LaunchError("boom"))
        journal.record_failure(failure)

        resumed = CheckpointJournal(path)
        assert resumed.get(request) is None  # a failure is not a result
        [reported] = resumed.failures()
        assert reported.error_type == "LaunchError"
        assert resumed.summary() == {"completed": 0, "failed": 1,
                                     "skipped_lines": 0}

    def test_success_supersedes_an_earlier_failure(self, stencil, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        request = stencil_request(stencil)
        journal = CheckpointJournal(path)
        journal.record_failure(
            FailureRecord.from_exception(request, LaunchError("boom")))
        journal.record_success(request, stencil.run(request))

        resumed = CheckpointJournal(path)
        assert resumed.get(request) is not None
        assert resumed.failures() == []

    def test_missing_file_resumes_empty(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "absent.jsonl"))
        assert journal.completed_count == 0


class TestSweepResilience:
    def test_on_error_validated(self, stencil):
        with pytest.raises(ConfigurationError):
            checkpointed(stencil.run, on_error="explode")
        with pytest.raises(ConfigurationError):
            checkpointed(stencil.run, on_error="retry")
