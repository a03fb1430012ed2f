"""Figure 4 — BabelStream bandwidth, Mojo vs CUDA (H100) and HIP (MI300A).

Runs the five operations at the paper's 2^25-element size on both platforms
and checks the per-operation Mojo efficiency against Table 5 (≈1.01 for the
streaming kernels on H100, 0.78 for Dot, parity on MI300A).

Dispatches through the unified Workload API (one ``RunRequest`` per
platform/backend); the per-operation bandwidths come out of the uniform
``WorkloadResult.metrics`` mapping.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..harness.compare import ratio_comparison, verification_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS, TABLE5_EFFICIENCIES
from ..harness.results import ExperimentResult, ResultTable
from ..harness.runner import MeasurementProtocol
from ..kernels.babelstream import BABELSTREAM_OPS
from ..workloads import get_workload

EXPERIMENT_ID = "fig4"
DESCRIPTION = "BabelStream bandwidth: Mojo vs CUDA (H100) and HIP (MI300A)"

PLATFORMS = (("h100", "cuda"), ("mi300a", "hip"))


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
    efficiencies: Dict[Tuple[str, str], float] = {}
    verified = []
    for gpu, baseline in PLATFORMS:
        request = workload.make_request(
            gpu=gpu, backend="mojo", precision=precision, params={"n": n},
            protocol=protocol, verify=verify)
        mojo = workload.run(request)
        verified.append(mojo)
        base = workload.run(request.replace(backend=baseline, verify=False))
        for op in BABELSTREAM_OPS:
            eff = mojo.metrics[f"{op}_gbs"] / base.metrics[f"{op}_gbs"]
            efficiencies[(op, gpu)] = eff
            table.add_row(gpu=gpu, operation=op,
                          mojo_gbs=mojo.metrics[f"{op}_gbs"],
                          baseline=baseline,
                          baseline_gbs=base.metrics[f"{op}_gbs"],
                          efficiency=eff)
    result.add_table(table)

    paper = TABLE5_EFFICIENCIES["babelstream"]
    for (op, gpu), eff in efficiencies.items():
        expected = paper.get((op, gpu))
        result.add_comparison(ratio_comparison(
            f"babelstream {op} efficiency on {gpu}", eff, expected, rel_tol=0.10,
        ))
    if verify:
        result.add_comparison(verification_comparison(verified))
    result.notes.append(FIGURE_EXPECTATIONS["fig4"])
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run(quick=False).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
