"""Experiment harness: results, paper data, comparisons, sweeps, plotting.

The names below resolve on first access (:mod:`repro._lazy`), so a workload
run that needs only :class:`MeasurementProtocol` imports only its module.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".benchcheck": ("BenchComparison", "compare_benchmarks", "extract_stats",
                    "load_stats", "write_baseline"),
    ".compare": ("ordering_comparison", "qualitative_comparison",
                 "ratio_comparison", "within_band"),
    ".paper_data": ("FIGURE_EXPECTATIONS", "TABLE1_HARDWARE",
                    "TABLE2_STENCIL_NCU", "TABLE3_BABELSTREAM_NCU",
                    "TABLE4_HARTREE_FOCK_MS", "TABLE5_EFFICIENCIES",
                    "TABLE5_PHI", "TEXT_RATIOS"),
    ".plotting": ("Series", "bar_chart", "line_chart", "series_to_csv"),
    ".results": ("Comparison", "ExperimentResult", "ResultTable"),
    ".runner": ("MeasurementProtocol",),
    ".sweep": ("Sweep", "sweep"),
})

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
