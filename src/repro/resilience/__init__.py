"""Resilience layer: deterministic chaos, recovery policies, checkpoints.

Four pieces, each usable alone and composed by the sweep harness:

* :mod:`~repro.resilience.faults` — seedable, deterministic fault
  injection wired into the device/executor/diskstore layers (off by
  default, zero-overhead when disabled);
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` (exponential
  backoff with seeded jitter) and :class:`Deadline` (per-run wall-clock
  budget);
* :mod:`~repro.resilience.degrade` — :func:`run_resilient`, the
  retry-then-degrade wrapper around ``Workload.run`` (executor ladder,
  tuned→untuned fallback, ``provenance["resilience"]`` records), and
  :func:`resilient_runner`, the one place ``repro bench`` and
  ``Sweep.run_workload`` get their per-request runner from;
* :mod:`~repro.resilience.checkpoint` — journaled sweep checkpointing,
  :class:`FailureRecord` collection and the :class:`SweepResilience`
  bundle behind ``Sweep.run_workload(..., checkpoint=..., on_error=...)``.
"""

from .checkpoint import (
    ON_ERROR_MODES,
    CheckpointJournal,
    FailureRecord,
    SweepResilience,
    request_digest,
)
from .degrade import degradation_ladder, resilient_runner, run_resilient
from .faults import (
    FAULT_SITES,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    active_injector,
    install_fault_plan,
)
from .policy import Deadline, RetryPolicy

__all__ = [
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active_injector",
    "install_fault_plan",
    "Deadline",
    "RetryPolicy",
    "run_resilient",
    "resilient_runner",
    "degradation_ladder",
    "CheckpointJournal",
    "FailureRecord",
    "SweepResilience",
    "request_digest",
    "ON_ERROR_MODES",
]
