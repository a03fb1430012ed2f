"""Tuned-vs-untuned performance portability (the Table 5 metric, revisited).

The paper's Table 5 Φ is computed from one hardcoded launch configuration
per kernel.  This report recomputes the same Eq. 4 application-efficiency
metric twice per workload — once from the untuned default configurations
and once with *both* the portable Mojo implementation and the vendor
baseline tuned by :class:`~repro.tuning.tuner.Tuner` — which answers the
question the hardcoded table cannot: does Mojo's portability survive when
every platform is allowed its own best launch?

Efficiencies are time-based (``e = t_baseline / t_mojo``), which for a
fixed problem size is identical to the per-workload figure-of-merit ratios
Table 5 uses (bandwidth and GFLOP/s are both ∝ 1/time).  Searches run
against an ephemeral in-memory :class:`~repro.tuning.db.TuningDB` so
generating a report never pollutes ``.repro_tune/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..experiments.driver import PLATFORMS
from ..harness.results import ResultTable
from ..harness.runner import MeasurementProtocol
from ..metrics.portability import arithmetic_mean_phi
from .db import TuningDB
from .tuner import Tuner

__all__ = ["TuningReportRow", "TuningReport", "tuning_report"]

#: tuning-sensitive representative configuration per workload (sizes where
#: launch choice matters and the analytic path stays fast)
REPORT_PARAMS: Dict[str, Dict[str, object]] = {
    "stencil": {"L": 64},
    "babelstream": {"n": 1 << 20},
    "minibude": {},
    "hartreefock": {"natoms": 64},
}


@dataclass
class TuningReportRow:
    """Efficiencies for one workload on one platform."""

    workload: str
    platform: str
    untuned_efficiency: float
    tuned_efficiency: float
    #: tuned-over-untuned speedup of the Mojo side on this platform
    mojo_speedup: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "platform": self.platform,
            "untuned_efficiency": self.untuned_efficiency,
            "tuned_efficiency": self.tuned_efficiency,
            "mojo_speedup": self.mojo_speedup,
        }


@dataclass
class TuningReport:
    """Tuned vs untuned Φ across the four workloads."""

    rows: List[TuningReportRow] = field(default_factory=list)
    budget: int = 8

    def phis(self) -> Dict[str, Tuple[float, float]]:
        """{workload: (untuned Φ, tuned Φ)} over the platform set."""
        grouped: Dict[str, List[TuningReportRow]] = {}
        for row in self.rows:
            grouped.setdefault(row.workload, []).append(row)
        return {
            name: (arithmetic_mean_phi([r.untuned_efficiency for r in rows]),
                   arithmetic_mean_phi([r.tuned_efficiency for r in rows]))
            for name, rows in grouped.items()
        }

    def table(self) -> ResultTable:
        table = ResultTable(
            columns=["workload", "platform", "untuned_eff", "tuned_eff",
                     "mojo_speedup"],
            title="Performance portability from tuned vs untuned points "
                  "(Eq. 4)",
        )
        for row in self.rows:
            table.add_row(workload=row.workload, platform=row.platform,
                          untuned_eff=row.untuned_efficiency,
                          tuned_eff=row.tuned_efficiency,
                          mojo_speedup=row.mojo_speedup)
        for name, (untuned, tuned) in self.phis().items():
            table.add_row(workload=name, platform="Φ (all)",
                          untuned_eff=untuned, tuned_eff=tuned,
                          mojo_speedup=float("nan"))
        return table

    def to_markdown(self) -> str:
        lines = [
            "## Tuned performance portability (Table 5 revisited)",
            "",
            "Φ recomputed from launch-tuned points: both the Mojo kernel and "
            "the vendor baseline are tuned per platform by `repro tune` "
            f"(budget {self.budget} per side) before the Eq. 4 efficiency "
            "is taken.  `mojo_speedup` is how much tuning improved the "
            "portable implementation on that platform.",
            "",
            self.table().to_markdown(),
        ]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "rows": [r.as_dict() for r in self.rows],
            "phi": {name: {"untuned": u, "tuned": t}
                    for name, (u, t) in self.phis().items()},
        }


def tuning_report(*, budget: int = 8, db: Optional[TuningDB] = None,
                  workloads: Optional[List[str]] = None) -> TuningReport:
    """Compute tuned and untuned Φ for the paper's workload/platform matrix."""
    from ..workloads import get_workload

    db = db if db is not None else TuningDB(disk_dir=None)
    report = TuningReport(budget=budget)
    names = workloads if workloads is not None else list(REPORT_PARAMS)
    for name in names:
        workload = get_workload(name)
        params = REPORT_PARAMS.get(name, {})
        for gpu, baseline_backend in PLATFORMS:
            untuned: Dict[str, float] = {}
            tuned: Dict[str, float] = {}
            for backend in ("mojo", baseline_backend):
                request = workload.make_request(
                    gpu=gpu, backend=backend, params=dict(params),
                    verify=False,
                    protocol=MeasurementProtocol(warmup=0, repeats=1))
                outcome = Tuner(workload, request, db=db, budget=budget,
                                probe=False).search()
                # the search's baseline is this very request, untuned
                if not outcome.baseline.ok:
                    raise ReproError(outcome.baseline.error)
                untuned[backend] = outcome.baseline.measured_ms
                tuned[backend] = (outcome.record.score_ms
                                  if outcome.record is not None
                                  else untuned[backend])
            report.rows.append(TuningReportRow(
                workload=name,
                platform=gpu,
                untuned_efficiency=untuned[baseline_backend]
                / untuned["mojo"],
                tuned_efficiency=tuned[baseline_backend] / tuned["mojo"],
                mojo_speedup=untuned["mojo"] / tuned["mojo"],
            ))
    return report
