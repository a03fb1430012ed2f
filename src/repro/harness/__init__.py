"""Experiment harness: results, paper data, comparisons, sweeps, plotting."""

from .benchcheck import (
    BenchComparison,
    compare_benchmarks,
    extract_stats,
    load_stats,
    write_baseline,
)
from .compare import (
    ordering_comparison,
    qualitative_comparison,
    ratio_comparison,
    within_band,
)
from .paper_data import (
    FIGURE_EXPECTATIONS,
    TABLE1_HARDWARE,
    TABLE2_STENCIL_NCU,
    TABLE3_BABELSTREAM_NCU,
    TABLE4_HARTREE_FOCK_MS,
    TABLE5_EFFICIENCIES,
    TABLE5_PHI,
    TEXT_RATIOS,
)
from .plotting import Series, bar_chart, line_chart, series_to_csv
from .results import Comparison, ExperimentResult, ResultTable
from .runner import MeasurementProtocol
from .sweep import Sweep, sweep

__all__ = [
    "BenchComparison", "compare_benchmarks", "extract_stats", "load_stats",
    "write_baseline",
    "ordering_comparison", "qualitative_comparison", "ratio_comparison", "within_band",
    "FIGURE_EXPECTATIONS", "TABLE1_HARDWARE", "TABLE2_STENCIL_NCU",
    "TABLE3_BABELSTREAM_NCU", "TABLE4_HARTREE_FOCK_MS", "TABLE5_EFFICIENCIES",
    "TABLE5_PHI", "TEXT_RATIOS",
    "Series", "bar_chart", "line_chart", "series_to_csv",
    "Comparison", "ExperimentResult", "ResultTable",
    "MeasurementProtocol",
    "Sweep", "sweep",
]
