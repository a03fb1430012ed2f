"""Retry and deadline policies for workload runs.

Two small, composable mechanisms, both deterministic:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *seeded* jitter (the delay for attempt *i* is a pure function of the
  seed, so chaos runs replay identically);
* :class:`Deadline` — a wall-clock budget for one run, enforced by joining
  a worker thread (the simulator has no preemption points, so a hung
  candidate is abandoned rather than interrupted) and surfaced as
  :class:`DeadlineExceeded`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from ..core.errors import (
    ConfigurationError,
    DeadlineExceeded,
    DeviceError,
    LaunchError,
    ReproError,
)
from ..obs import metrics as _obs_metrics

__all__ = ["RetryPolicy", "Deadline"]


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means up to
    two retries.  The delay after failed attempt *i* (1-based) is
    ``backoff_s * multiplier**(i-1)``, scaled by a deterministic jitter
    factor in ``[1-jitter, 1+jitter]`` drawn from ``(seed, i)`` alone.
    ``retry_on`` lists the transient exception types worth retrying;
    configuration errors are deliberately not among the defaults — retrying
    a malformed request can never succeed.
    """

    #: exception types retried by default (transient substrate failures)
    DEFAULT_RETRY_ON = (LaunchError, DeviceError, DeadlineExceeded)

    def __init__(self, max_attempts: int = 3, *,
                 backoff_s: float = 0.01,
                 multiplier: float = 2.0,
                 jitter: float = 0.1,
                 seed: int = 2025,
                 retry_on: Tuple[type, ...] = DEFAULT_RETRY_ON,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_s < 0 or multiplier < 1.0 or not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(
                "invalid backoff: need backoff_s >= 0, multiplier >= 1, "
                "0 <= jitter <= 1"
            )
        self.max_attempts = int(max_attempts)
        self.backoff_s = float(backoff_s)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.retry_on = tuple(retry_on)
        self.sleep = sleep

    def retryable(self, exc: BaseException) -> bool:
        """True when *exc* is a transient failure worth another attempt."""
        return isinstance(exc, self.retry_on)

    def delay_s(self, attempt: int) -> float:
        """Backoff delay after failed *attempt* (1-based), jitter included."""
        base = self.backoff_s * self.multiplier ** (max(attempt, 1) - 1)
        digest = hashlib.sha256(f"{self.seed}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def call(self, fn: Callable[[], object], *,
             on_retry: Optional[Callable[[int, BaseException], None]] = None):
        """Run ``fn()`` under this policy; the last failure propagates."""
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except ReproError as exc:
                if attempt >= self.max_attempts or not self.retryable(exc):
                    raise
                _obs_metrics.inc("retry_attempts_total")
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleep(self.delay_s(attempt))

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
            "seed": self.seed,
        }


class Deadline:
    """A wall-clock budget, checked cooperatively or enforced via a thread.

    ``run(fn, *args)`` executes *fn* on a daemon worker and joins it for
    the remaining budget; on expiry the worker is abandoned (daemonised —
    the simulator cannot be interrupted safely mid-kernel) and
    :class:`DeadlineExceeded` is raised.  ``check()`` is the cheap
    cooperative form for code with natural yield points.
    """

    def __init__(self, timeout_ms: float, *,
                 clock: Callable[[], float] = time.monotonic):
        if timeout_ms is None or timeout_ms <= 0:
            raise ConfigurationError(
                f"deadline timeout_ms must be > 0, got {timeout_ms}")
        self.timeout_ms = float(timeout_ms)
        self._clock = clock
        self._started = clock()

    @property
    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1e3

    @property
    def remaining_ms(self) -> float:
        return self.timeout_ms - self.elapsed_ms

    @property
    def expired(self) -> bool:
        return self.remaining_ms <= 0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.timeout_ms:g} ms deadline "
                f"({self.elapsed_ms:.1f} ms elapsed)",
                timeout_ms=self.timeout_ms,
            )

    def run(self, fn: Callable[..., object], *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` within the remaining budget."""
        self.check(getattr(fn, "__name__", "operation"))
        box: Dict[str, object] = {}
        done = threading.Event()

        def target() -> None:
            try:
                box["value"] = fn(*args, **kwargs)
            except BaseException as exc:  # delivered to the caller below
                box["error"] = exc
            finally:
                done.set()

        worker = threading.Thread(target=target, daemon=True,
                                  name="repro-deadline")
        worker.start()
        done.wait(max(self.remaining_ms, 0.0) / 1e3)
        if not done.is_set():
            raise DeadlineExceeded(
                f"{getattr(fn, '__name__', 'operation')} exceeded its "
                f"{self.timeout_ms:g} ms deadline",
                timeout_ms=self.timeout_ms,
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box.get("value")
