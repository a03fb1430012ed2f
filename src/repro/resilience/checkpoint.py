"""Journaled sweep checkpointing and failure records.

A long sweep should survive interruption and partial failure.  The
:class:`CheckpointJournal` is an append-only JSON-lines file: one line per
finished request, keyed by the same canonical request digest the on-disk
result cache uses.  Resuming a sweep replays the journal — completed
requests are answered from their recorded result export without re-running,
previously *failed* requests (a raised error or a failed verification) get
a fresh chance — and a torn tail line (the process died mid-write) is
skipped, never fatal.

Failures that a sweep is told to survive (``on_error="skip"``) come back
as :class:`FailureRecord` entries in the result list, preserving sweep
order, so callers can always line results up with configurations.

:func:`checkpointed` is the per-request wrapper
:meth:`repro.harness.sweep.Sweep.run_workload` builds from its
``checkpoint`` / ``on_error`` keyword arguments.  Thread-safe throughout:
the ``workers=N`` pool shares one journal.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.errors import ConfigurationError, ReproError, VerificationError

__all__ = ["FailureRecord", "CheckpointJournal", "checkpointed",
           "request_digest", "ON_ERROR_MODES"]

#: schema tag written with every journal line; bump to invalidate old files
_JOURNAL_SCHEMA = "repro.sweep-checkpoint/v1"

#: how run_workload treats a request that fails
ON_ERROR_MODES = ("raise", "skip")


def request_digest(request) -> str:
    """Canonical digest of *request* — the result cache's disk key.

    Reusing :meth:`ResultCache.disk_key` means a checkpoint entry and a
    result-cache entry for the same request agree on identity (both fold
    the package version in, so a release boundary invalidates both).
    """
    from ..workloads.cache import ResultCache

    return ResultCache.disk_key(request)


@dataclass
class FailureRecord:
    """One request a sweep could not complete.

    Takes a result's place in the sweep-ordered output list, so it mirrors
    the identification fields a caller would read off a result.  ``ok`` is
    always False — results and failures can be split with a simple
    attribute test (results expose no ``ok``; use ``isinstance`` or
    ``getattr(r, "ok", True)``).
    """

    workload: str
    digest: str
    request: Dict[str, object]
    error_type: str
    message: str
    ok: bool = field(default=False, init=False)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "digest": self.digest,
            "request": self.request,
            "error_type": self.error_type,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FailureRecord":
        return cls(
            workload=str(payload.get("workload", "")),
            digest=str(payload.get("digest", "")),
            request=dict(payload.get("request", {})),
            error_type=str(payload.get("error_type", "")),
            message=str(payload.get("message", "")),
        )

    @classmethod
    def from_exception(cls, request, exc: BaseException) -> "FailureRecord":
        return cls(
            workload=request.workload,
            digest=request_digest(request),
            request=request.as_dict(),
            error_type=type(exc).__name__,
            message=str(exc),
        )


class CheckpointJournal:
    """Append-only JSON-lines journal of finished sweep requests.

    ``resume=True`` (the default) loads any existing file; ``resume=False``
    truncates it and starts fresh.  Loading is tolerant: unparseable lines
    (a torn tail from an interrupted write) and lines with a foreign schema
    tag are skipped.  Appends re-open the file per write and flush+fsync,
    so every *completed* request survives a crash.
    """

    def __init__(self, path: str, *, resume: bool = True):
        self.path = str(path)
        self._lock = threading.Lock()
        self._completed: Dict[str, dict] = {}
        self._failed: Dict[str, dict] = {}
        self.skipped_lines = 0
        #: requests answered from the journal instead of being run
        self.served = 0
        if resume:
            self._load()
        elif os.path.exists(self.path):
            with open(self.path, "w", encoding="utf-8"):
                pass

    # ---------------------------------------------------------------- loading
    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            if not isinstance(entry, dict) \
                    or entry.get("schema") != _JOURNAL_SCHEMA:
                self.skipped_lines += 1
                continue
            digest = entry.get("digest")
            if not digest:
                self.skipped_lines += 1
                continue
            if entry.get("status") == "ok":
                self._completed[digest] = entry
                self._failed.pop(digest, None)
            elif entry.get("status") == "failed":
                # remembered for reporting only: a resumed sweep re-runs it
                self._failed[digest] = entry

    # --------------------------------------------------------------- querying
    def get(self, request):
        """The rehydrated result for a completed *request*, or None."""
        from ..workloads.cache import _result_from_export

        digest = request_digest(request)
        with self._lock:
            entry = self._completed.get(digest)
            if entry is None:
                return None
            self.served += 1
        return _result_from_export(request, entry.get("result", {}))

    @property
    def completed_count(self) -> int:
        with self._lock:
            return len(self._completed)

    def failures(self) -> List[FailureRecord]:
        """Failure records remembered from previous (resumed) runs."""
        with self._lock:
            entries = list(self._failed.values())
        return [FailureRecord.from_dict(e.get("failure", {}))
                for e in entries]

    def summary(self) -> Dict[str, int]:
        with self._lock:
            return {"completed": len(self._completed),
                    "failed": len(self._failed),
                    "skipped_lines": self.skipped_lines}

    # -------------------------------------------------------------- recording
    def record_success(self, request, result) -> None:
        digest = request_digest(request)
        entry = {
            "schema": _JOURNAL_SCHEMA,
            "status": "ok",
            "digest": digest,
            "workload": request.workload,
            "result": result.as_dict(),
        }
        with self._lock:
            self._completed[digest] = entry
            self._failed.pop(digest, None)
            self._append(entry)

    def record_failure(self, failure: FailureRecord) -> None:
        entry = {
            "schema": _JOURNAL_SCHEMA,
            "status": "failed",
            "digest": failure.digest,
            "workload": failure.workload,
            "failure": failure.as_dict(),
        }
        with self._lock:
            self._failed[failure.digest] = entry
            self._append(entry)

    def _append(self, entry: dict) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, default=str) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def checkpointed(runner: Callable, journal: Optional[CheckpointJournal] = None,
                 *, on_error: str = "raise") -> Callable:
    """*runner* wrapped with checkpoint-journal lookup and failure capture.

    A request the *journal* holds as completed is answered from it without
    running.  A request that raises a :class:`ReproError` is journaled as
    failed; ``on_error="skip"`` returns it as a :class:`FailureRecord`,
    ``"raise"`` re-raises.  A result whose verification failed is returned
    as is but journaled as failed, so a resumed sweep re-runs it.
    """
    if on_error not in ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")

    def run(request):
        if journal is not None:
            stored = journal.get(request)
            if stored is not None:
                return stored
        try:
            result = runner(request)
        except ReproError as exc:
            failure = FailureRecord.from_exception(request, exc)
            if journal is not None:
                journal.record_failure(failure)
            if on_error == "raise":
                raise
            return failure
        if journal is not None:
            verdict = result.verification
            if verdict.ran and not verdict.passed:
                journal.record_failure(FailureRecord.from_exception(
                    request, VerificationError(
                        verdict.detail or "verification failed")))
            else:
                journal.record_success(request, result)
        return result

    return run
