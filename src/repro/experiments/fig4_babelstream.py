"""Figure 4 — BabelStream bandwidth, Mojo vs CUDA (H100) and HIP (MI300A).

Runs the five operations at the paper's 2^25-element size on both platforms
and checks the per-operation Mojo efficiency against Table 5 (≈1.01 for the
streaming kernels on H100, 0.78 for Dot, parity on MI300A).
"""

from __future__ import annotations

from ..harness.compare import ratio_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS, TABLE5_EFFICIENCIES
from ..harness.results import ExperimentResult, ResultTable
from ..harness.runner import MeasurementProtocol
from ..kernels.babelstream import BABELSTREAM_OPS
from ..workloads import get_workload
from .driver import PLATFORMS, run_pair

EXPERIMENT_ID = "fig4"
DESCRIPTION = "BabelStream bandwidth: Mojo vs CUDA (H100) and HIP (MI300A)"


def run(*, n: int = 2 ** 25, precision: str = "float64", quick: bool = True,
        verify: bool = False) -> ExperimentResult:
    """Regenerate Figure 4 (both panels)."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    table = ResultTable(
        columns=["gpu", "operation", "mojo_gbs", "baseline", "baseline_gbs",
                 "efficiency"],
        title=f"BabelStream bandwidth (Eq. 2), {n} x {precision}",
    )

    workload = get_workload("babelstream")
    protocol = MeasurementProtocol(warmup=1, repeats=4)
    paper = TABLE5_EFFICIENCIES["babelstream"]
    for gpu, baseline in PLATFORMS:
        request = workload.make_request(
            gpu=gpu, backend="mojo", precision=precision, params={"n": n},
            protocol=protocol, verify=verify)
        mojo, base = run_pair(request, baseline)
        for op in BABELSTREAM_OPS:
            mojo_gbs = mojo.metrics[f"{op}_gbs"]
            base_gbs = base.metrics[f"{op}_gbs"]
            table.add_row(gpu=gpu, operation=op, mojo_gbs=mojo_gbs,
                          baseline=baseline, baseline_gbs=base_gbs,
                          efficiency=mojo_gbs / base_gbs)
            result.add_comparison(ratio_comparison(
                f"babelstream {op} efficiency on {gpu}", mojo_gbs / base_gbs,
                paper.get((op, gpu)), rel_tol=0.10,
            ))
    result.add_table(table)
    result.notes.append(FIGURE_EXPECTATIONS["fig4"])
    return result
