"""Profiler substrate: ncu-style reports, SASS comparisons."""

from .counters import CounterSet, collect_counters
from .ncu import NcuReport, format_metric_table
from .sass import SassComparison, compare_sass

__all__ = [
    "CounterSet", "collect_counters",
    "NcuReport", "format_metric_table",
    "SassComparison", "compare_sass",
]
