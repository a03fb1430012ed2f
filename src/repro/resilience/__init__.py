"""Resilience layer: deterministic fault injection and journaled sweeps.

The simulator is deterministic, so a failed run fails again when re-run
unchanged; there is no retry loop.  Two pieces remain, each usable alone:

* :mod:`~repro.resilience.faults` — seedable, deterministic fault
  injection wired into the device/executor/diskstore layers (off by
  default, zero-overhead when disabled), the test instrument that proves
  verification catches a bad download;
* :mod:`~repro.resilience.checkpoint` — journaled sweep checkpointing and
  :class:`FailureRecord` collection behind
  ``Sweep.run_workload(..., checkpoint=..., on_error=...)``: a resumed
  sweep serves journaled results and re-runs only the failed requests.
"""

from .checkpoint import (
    ON_ERROR_MODES,
    CheckpointJournal,
    FailureRecord,
    checkpointed,
    request_digest,
)
from .faults import (
    FAULT_SITES,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    active_injector,
    install_fault_plan,
)

__all__ = [
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active_injector",
    "install_fault_plan",
    "CheckpointJournal",
    "FailureRecord",
    "checkpointed",
    "request_digest",
    "ON_ERROR_MODES",
]
