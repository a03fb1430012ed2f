"""Exception hierarchy for the portable kernel framework.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch framework-level failures with a single ``except`` clause
while still being able to distinguish configuration problems from runtime
(device) problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CompilationError",
    "LaunchError",
    "DeviceError",
    "OutOfMemoryError",
    "UnsupportedBackendError",
    "LayoutError",
    "DTypeError",
    "VerificationError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro framework."""


class ConfigurationError(ReproError):
    """Raised when a user-facing configuration value is invalid."""


class CompilationError(ReproError):
    """Raised when the kernel compilation pipeline fails."""


class LaunchError(ReproError):
    """Raised when a kernel launch is malformed (bad grid/block, bad args)."""


class DeviceError(ReproError):
    """Raised for errors originating from the simulated device."""


class OutOfMemoryError(DeviceError):
    """Raised when a device allocation exceeds the simulated GPU memory."""


class UnsupportedBackendError(ConfigurationError):
    """Raised when a backend does not support the requested GPU or feature."""


class LayoutError(ReproError):
    """Raised for invalid layouts or out-of-bounds tensor accesses."""


class DTypeError(ReproError):
    """Raised for unknown or incompatible data types."""


class VerificationError(ReproError):
    """Raised when a kernel result fails verification against its reference.

    ``max_rel_error`` optionally carries the measured error magnitude so
    structured consumers (the unified workload results) do not have to parse
    it back out of the message.
    """

    def __init__(self, message: str, *, max_rel_error=None):
        super().__init__(message)
        self.max_rel_error = max_rel_error


class AnalysisError(ReproError):
    """Raised when static analysis rejects a kernel or device graph.

    Only opt-in checks raise it — a ``@kernel(strict=True)`` kernel with
    error diagnostics at its first launch resolution (eager launch,
    ``instantiate`` or graph capture, before any lane runs), and
    ``ctx.capture(check=True)`` at capture time; the ``repro lint`` CLI
    reports the same findings without raising.
    """

