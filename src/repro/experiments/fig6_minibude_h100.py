"""Figure 6 — miniBUDE GFLOP/s on NVIDIA H100 (Mojo vs CUDA ± fast-math).

Sweeps PPWI for the two work-group sizes and checks the relationships the
paper derives from the figure: Mojo sits between CUDA with and without
fast-math at small PPWI and outperforms plain CUDA for small PPWI and
work-group size.
"""

from __future__ import annotations

from ..harness.compare import ordering_comparison, qualitative_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS
from ..harness.plotting import Series, series_to_csv
from ..harness.results import ExperimentResult, ResultTable
from ..kernels.minibude import DEFAULT_PPWI_SWEEP
from ..workloads import get_workload
from .driver import run as run_request, run_pair

EXPERIMENT_ID = "fig6"
DESCRIPTION = "miniBUDE GFLOP/s on NVIDIA H100: Mojo vs CUDA (± fast-math)"

GPU = "h100"
BASELINE = "cuda"


def run(*, quick: bool = True, verify: bool = False,
        gpu: str = GPU, baseline: str = BASELINE) -> ExperimentResult:
    """Regenerate Figure 6 (or Figure 7 when called with the AMD platform)."""
    result = ExperimentResult(EXPERIMENT_ID if gpu == GPU else "fig7",
                              DESCRIPTION if gpu == GPU else
                              DESCRIPTION.replace("NVIDIA H100", "AMD MI300A")
                                         .replace("CUDA", "HIP"))
    ppwis = (1, 2, 4, 8, 32, 128) if quick else DEFAULT_PPWI_SWEEP
    names = ("mojo", f"{baseline}_fastmath", baseline)

    workload = get_workload("minibude")
    for wg in (8, 64):
        table = ResultTable(
            columns=["ppwi", *names],
            title=f"miniBUDE bm1 GFLOP/s on {gpu}, work-group {wg}",
        )
        series = [Series(name) for name in names]
        for ppwi in ppwis:
            request = workload.make_request(
                gpu=gpu, params={"ppwi": ppwi, "wgsize": wg}, verify=verify)
            verify = False  # only verify once per experiment
            mojo, fast = run_pair(request, baseline, fast_math=True)
            plain = run_request(request.replace(backend=baseline,
                                                verify=False))
            row = {"ppwi": ppwi}
            for s, res in zip(series, (mojo, fast, plain)):
                row[s.name] = res.primary_value
                s.add(ppwi, res.primary_value)
            table.add_row(**row)
        result.add_table(table)
        result.extra_text.append(series_to_csv(series, x_label="ppwi"))

    # Shape checks derived from the paper's reading of the figure, on the
    # smallest PPWI (each table's first row).
    wg8, wg64 = (t.rows[0] for t in result.tables)
    ordering = {name: wg64[name] for name in names}
    if gpu == GPU:
        result.add_comparison(qualitative_comparison(
            "Mojo outperforms CUDA (no fast-math) at small PPWI and work-group",
            wg8["mojo"] > wg8[baseline],
            detail=f"mojo={wg8['mojo']:.0f} vs {baseline}={wg8[baseline]:.0f} GFLOP/s",
        ))
        result.add_comparison(ordering_comparison(
            "Mojo sits between CUDA with and without fast-math (small PPWI, wg=64)",
            ordering, expected_order=[f"{baseline}_fastmath", "mojo", baseline],
        ))
    else:
        result.add_comparison(ordering_comparison(
            "Mojo underperforms both HIP variants on MI300A",
            ordering, expected_order=[f"{baseline}_fastmath", baseline, "mojo"],
        ))
    result.notes.append(FIGURE_EXPECTATIONS["fig6" if gpu == GPU else "fig7"])
    return result
