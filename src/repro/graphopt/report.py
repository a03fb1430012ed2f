"""Graph-compiler speedup report for ``repro report`` / EXPERIMENTS.md.

One row per workload: best-of-*repeats* replay time of the lint capture
before and after the all-pass pipeline, plus vectorized-vs-lowered dispatch
times of the tuning probe for workloads that declare one.  The closing Φ
row aggregates the speedups with the same arithmetic-mean treatment the
portability tables use — fusion and lowering are "performance portability
across executors" in the paper's Eq. 4 sense: how much of the compiled
path's performance the interpreted path reaches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..harness.results import ResultTable
from .passes import optimize_graph

__all__ = ["GraphOptReportRow", "GraphOptBenchReport", "graphopt_report",
           "replay_timings"]


@dataclass
class GraphOptReportRow:
    """Replay/dispatch timings for one workload's captured graph."""

    workload: str
    unfused_s: Optional[float] = None
    fused_s: Optional[float] = None
    vectorized_s: Optional[float] = None
    lowered_s: Optional[float] = None

    @property
    def fused_speedup(self) -> Optional[float]:
        if self.unfused_s and self.fused_s:
            return self.unfused_s / self.fused_s
        return None

    @property
    def lowered_speedup(self) -> Optional[float]:
        if self.vectorized_s and self.lowered_s:
            return self.vectorized_s / self.lowered_s
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "unfused_s": self.unfused_s,
            "fused_s": self.fused_s,
            "fused_speedup": self.fused_speedup,
            "vectorized_s": self.vectorized_s,
            "lowered_s": self.lowered_s,
            "lowered_speedup": self.lowered_speedup,
        }


@dataclass
class GraphOptBenchReport:
    """Fused/lowered speedups across the registered workloads."""

    rows: List[GraphOptReportRow] = field(default_factory=list)
    repeats: int = 10

    def mean_speedups(self) -> Dict[str, float]:
        """Arithmetic-mean fused/lowered speedups over measurable rows."""
        out: Dict[str, float] = {}
        for key in ("fused_speedup", "lowered_speedup"):
            values = [getattr(r, key) for r in self.rows
                      if getattr(r, key) is not None]
            if values:
                out[key] = sum(values) / len(values)
        return out

    def table(self) -> ResultTable:
        table = ResultTable(
            columns=["workload", "unfused_us", "fused_us", "fused_speedup",
                     "vectorized_us", "lowered_us", "lowered_speedup"],
            title="Graph-compiler replay and dispatch speedups",
        )

        def us(value: Optional[float]):
            return value * 1e6 if value is not None else float("nan")

        for row in self.rows:
            table.add_row(
                workload=row.workload,
                unfused_us=us(row.unfused_s), fused_us=us(row.fused_s),
                fused_speedup=row.fused_speedup
                if row.fused_speedup is not None else float("nan"),
                vectorized_us=us(row.vectorized_s),
                lowered_us=us(row.lowered_s),
                lowered_speedup=row.lowered_speedup
                if row.lowered_speedup is not None else float("nan"),
            )
        means = self.mean_speedups()
        table.add_row(
            workload="Φ (mean)", unfused_us=float("nan"),
            fused_us=float("nan"),
            fused_speedup=means.get("fused_speedup", float("nan")),
            vectorized_us=float("nan"), lowered_us=float("nan"),
            lowered_speedup=means.get("lowered_speedup", float("nan")),
        )
        return table

    def to_markdown(self) -> str:
        lines = [
            "## Graph compiler: fused and lowered speedups",
            "",
            "Best-of-{n} replay of each workload's lint capture before and "
            "after the all-pass pipeline (`elide,fuse,hoist`), and "
            "vectorized-vs-lowered executor dispatch of the tuning probe. "
            "The closing Φ row is the arithmetic-mean speedup over the "
            "measurable workloads; committed baselines guard fused ≥ "
            "unfused and lowered ≥ 2× vectorized on every merge.".format(
                n=self.repeats),
            "",
            self.table().to_markdown(),
        ]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {"repeats": self.repeats,
                "rows": [r.as_dict() for r in self.rows],
                "mean_speedups": self.mean_speedups()}


def _best(fn, repeats: int) -> float:
    fn()                                        # warm caches/codegen
    samples = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def replay_timings(workload, passes: str,
                   repeats: int) -> Dict[str, float]:
    """Best-of-*repeats* replay times for one workload's graphs, in seconds.

    ``unfused_replay_s`` / ``fused_replay_s`` replay the lint capture before
    and after the *passes* pipeline; ``vectorized_replay_s`` /
    ``lowered_replay_s`` replay executor-mode variants of the tuning probe.
    A key is absent when the workload has no such graph.
    """
    timings: Dict[str, float] = {}
    graph = workload.lint_graph()
    if graph is not None:
        optimized, _ = optimize_graph(graph, passes)
        timings["unfused_replay_s"] = _best(graph.replay, repeats)
        timings["fused_replay_s"] = _best(optimized.replay, repeats)
    for mode in ("vectorized", "lowered"):
        probe = workload.tuning_probe(workload.make_request(executor=mode))
        if probe is not None:
            timings[f"{mode}_replay_s"] = _best(probe.replay, repeats)
    return timings


def graphopt_report(workload_names=None, *,
                    repeats: int = 10) -> GraphOptBenchReport:
    """Measure fused/lowered speedups for the registered workloads."""
    from ..workloads import get_workload, list_workloads

    report = GraphOptBenchReport(repeats=repeats)
    for name in (workload_names or list_workloads()):
        timings = replay_timings(get_workload(name), "all", repeats)
        report.rows.append(GraphOptReportRow(
            workload=name, unfused_s=timings.get("unfused_replay_s"),
            fused_s=timings.get("fused_replay_s"),
            vectorized_s=timings.get("vectorized_replay_s"),
            lowered_s=timings.get("lowered_replay_s")))
    return report
