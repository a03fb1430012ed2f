"""Figure 3 — seven-point stencil bandwidth, Mojo vs CUDA (H100) and HIP (MI300A).

Sweeps the two problem sizes and both precisions for each platform, reports
the Eq. 1 effective bandwidth, and checks the Mojo-vs-baseline efficiency
against the paper's Table 5 values (0.82 FP32 / 0.87 FP64 on H100, parity on
MI300A).
"""

from __future__ import annotations

from ..harness.compare import ratio_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS, TABLE5_EFFICIENCIES
from ..harness.results import ExperimentResult, ResultTable
from ..harness.runner import MeasurementProtocol
from ..harness.sweep import sweep
from ..workloads import get_workload
from .driver import PLATFORMS, run_pair

EXPERIMENT_ID = "fig3"
DESCRIPTION = "Seven-point stencil bandwidth: Mojo vs CUDA (H100) and HIP (MI300A)"


def run(*, quick: bool = True, iterations: int = 20, verify: bool = False) -> ExperimentResult:
    """Regenerate Figure 3 (both panels)."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    sizes = (512,) if quick else (512, 1024)
    block_shapes = ((512, 1, 1),) if quick else ((512, 1, 1), (1024, 1, 1))

    table = ResultTable(
        columns=["gpu", "precision", "L", "block", "mojo_gbs", "baseline",
                 "baseline_gbs", "efficiency"],
        title="Effective bandwidth (Eq. 1), GB/s",
    )

    workload = get_workload("stencil")
    protocol = MeasurementProtocol(warmup=1, repeats=max(iterations - 1, 1))
    paper = TABLE5_EFFICIENCIES["stencil"]
    checked = set()
    for gpu, baseline in PLATFORMS:
        requests = sweep(precision=["float32", "float64"], L=list(sizes),
                         block_shape=list(block_shapes)).requests(
            workload, gpu=gpu, backend="mojo", protocol=protocol,
            verify=verify)
        for request in requests:
            mojo, base = run_pair(request, baseline)
            eff = mojo.primary_value / base.primary_value
            table.add_row(gpu=gpu, precision=request.precision,
                          L=request.params["L"],
                          block=str(request.params["block_shape"]),
                          mojo_gbs=mojo.primary_value, baseline=baseline,
                          baseline_gbs=base.primary_value, efficiency=eff)
            # each precision's first point is checked against Table 5
            key = (request.precision.replace("float", "fp"), gpu)
            if key not in checked:
                checked.add(key)
                result.add_comparison(ratio_comparison(
                    f"stencil efficiency {key[0]} on {gpu}", eff, paper[key],
                    rel_tol=0.15,
                ))
    result.add_table(table)
    result.notes.append(FIGURE_EXPECTATIONS["fig3"])
    return result
