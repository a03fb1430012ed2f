"""Nsight-Compute-style report objects (Tables 2 and 3 of the paper).

``ncu`` presents per-kernel sections (speed-of-light throughput, memory
workload, launch statistics).  :class:`NcuReport` collects the same quantities
for one or more kernels and renders side-by-side comparison tables in the
paper's layout: one column per (kernel, programming model) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..backends.base import BackendRun
from .counters import CounterSet, collect_counters

__all__ = ["NcuReport", "format_metric_table"]


@dataclass
class NcuReport:
    """A collection of profiled kernels, renderable as a comparison table."""

    title: str = "Nsight Compute CLI (ncu) report"
    entries: List[Tuple[str, CounterSet]] = field(default_factory=list)

    # ------------------------------------------------------------------ build
    def add_run(self, label: str, run: BackendRun) -> CounterSet:
        """Profile a backend run and add it under *label*."""
        counters = collect_counters(run)
        self.entries.append((label, counters))
        return counters

    # ------------------------------------------------------------------ query
    @property
    def labels(self) -> List[str]:
        return [label for label, _ in self.entries]

    def get(self, label: str) -> CounterSet:
        for lab, counters in self.entries:
            if lab == label:
                return counters
        raise KeyError(f"no profiled entry labelled {label!r}")

    # ------------------------------------------------------------- rendering
    def rows(self) -> List[Tuple[str, List[str]]]:
        """(metric name, values per column) rows in the paper's Table 2/3 order."""
        def fmt(value, pattern="{:.2f}"):
            if value is None:
                return "-"
            return pattern.format(value)

        metric_rows = [
            ("Duration (ms)", lambda c: fmt(c.duration_ms, "{:.3f}")),
            ("Compute (SM) Throughput (%)", lambda c: fmt(c.compute_throughput_pct, "{:.1f}")),
            ("Memory Throughput (%)", lambda c: fmt(c.memory_throughput_pct, "{:.1f}")),
            ("L1 ai (FLOP/byte)", lambda c: fmt(c.l1_arithmetic_intensity)),
            ("L2 ai (FLOP/byte)", lambda c: fmt(c.l2_arithmetic_intensity)),
            ("L3 ai (FLOP/byte)", lambda c: fmt(c.dram_arithmetic_intensity)),
            ("L1-3 Perf (FLOP/s)", lambda c: fmt(c.flops_per_second, "{:.2e}")),
            ("Registers", lambda c: fmt(c.registers_per_thread, "{:.0f}")),
            ("Load Global (LDG)", lambda c: fmt(c.load_global_per_thread, "{:.0f}")),
            ("Store Global (STG)", lambda c: fmt(c.store_global_per_thread, "{:.0f}")),
        ]
        return [(name, [getter(c) for _, c in self.entries])
                for name, getter in metric_rows]

    def to_markdown(self) -> str:
        """Render the report as a GitHub-flavoured markdown table."""
        header = ["ncu metric"] + self.labels
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        for name, values in self.rows():
            lines.append("| " + " | ".join([name] + values) + " |")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Render the report as an aligned plain-text table."""
        header = ["ncu metric"] + self.labels
        table = [header] + [[name] + values for name, values in self.rows()]
        widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
        out = [self.title, "=" * len(self.title)]
        for row in table:
            out.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(out)


def format_metric_table(reports: Sequence[NcuReport]) -> str:
    """Concatenate several reports into one text blob."""
    return "\n\n".join(r.to_text() for r in reports)
