"""Figure 3 — seven-point stencil bandwidth, Mojo vs CUDA (H100) and HIP (MI300A).

Sweeps the two problem sizes and both precisions for each platform, reports
the Eq. 1 effective bandwidth, and checks the Mojo-vs-baseline efficiency
against the paper's Table 5 values (0.82 FP32 / 0.87 FP64 on H100, parity on
MI300A).

Dispatches through the unified Workload API: the sweep produces
``RunRequest`` objects and the registry's ``stencil`` workload runs them, so
this module never touches the kernel-specific runner surface.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..harness.compare import ratio_comparison, verification_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS, TABLE5_EFFICIENCIES
from ..harness.results import ExperimentResult, ResultTable
from ..harness.runner import MeasurementProtocol
from ..harness.sweep import sweep
from ..workloads import get_workload

EXPERIMENT_ID = "fig3"
DESCRIPTION = "Seven-point stencil bandwidth: Mojo vs CUDA (H100) and HIP (MI300A)"

#: the (gpu, baseline backend) pairs of Figure 3a / 3b
PLATFORMS = (("h100", "cuda"), ("mi300a", "hip"))


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
    efficiencies: Dict[Tuple[str, str], float] = {}
    verified = []
    for gpu, baseline in PLATFORMS:
        requests = sweep(precision=["float32", "float64"], L=list(sizes),
                         block_shape=list(block_shapes)).requests(
            workload, gpu=gpu, backend="mojo", protocol=protocol,
            verify=verify)
        for request in requests:
            mojo = workload.run(request)
            verified.append(mojo)
            base = workload.run(request.replace(backend=baseline,
                                                verify=False))
            eff = mojo.primary_value / base.primary_value
            key = (request.precision, gpu)
            efficiencies.setdefault(key, eff)
            table.add_row(gpu=gpu, precision=request.precision,
                          L=request.params["L"],
                          block=str(request.params["block_shape"]),
                          mojo_gbs=mojo.primary_value, baseline=baseline,
                          baseline_gbs=base.primary_value, efficiency=eff)
    result.add_table(table)

    paper = TABLE5_EFFICIENCIES["stencil"]
    mapping = {("float32", "h100"): ("fp32", "h100"),
               ("float64", "h100"): ("fp64", "h100"),
               ("float32", "mi300a"): ("fp32", "mi300a"),
               ("float64", "mi300a"): ("fp64", "mi300a")}
    for key, paper_key in mapping.items():
        if key not in efficiencies:
            continue
        result.add_comparison(ratio_comparison(
            f"stencil efficiency {paper_key[0]} on {paper_key[1]}",
            efficiencies[key], paper[paper_key], rel_tol=0.15,
        ))
    if verify:
        result.add_comparison(verification_comparison(verified))
    result.notes.append(FIGURE_EXPECTATIONS["fig3"])
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run(quick=False).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
