"""Measurement protocol: warm-up runs discarded, repeats kept.

Every :class:`~repro.workloads.base.RunRequest` carries one; the sampled
workloads (stencil, BabelStream) draw ``repeats`` seeded jitter samples
around the modelled figure of merit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError

__all__ = ["MeasurementProtocol"]


@dataclass(frozen=True)
class MeasurementProtocol:
    """How a quantity is measured: warm-up runs discarded, repeats kept."""

    warmup: int = 1
    repeats: int = 5

    def __post_init__(self):
        if self.warmup < 0 or self.repeats < 1:
            raise ConfigurationError(
                "warmup must be >= 0 and repeats >= 1 "
                f"(got warmup={self.warmup}, repeats={self.repeats})"
            )
