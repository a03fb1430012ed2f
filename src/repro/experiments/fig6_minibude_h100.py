"""Figure 6 — miniBUDE GFLOP/s on NVIDIA H100 (Mojo vs CUDA ± fast-math).

Sweeps PPWI for the two work-group sizes and checks the relationships the
paper derives from the figure: Mojo sits between CUDA with and without
fast-math at small PPWI and outperforms plain CUDA for small PPWI and
work-group size.
"""

from __future__ import annotations

from typing import Dict

from ..harness.compare import (
    ordering_comparison,
    qualitative_comparison,
    verification_comparison,
)
from ..harness.paper_data import FIGURE_EXPECTATIONS
from ..harness.plotting import Series, series_to_csv
from ..harness.results import ExperimentResult, ResultTable
from ..kernels.minibude import DEFAULT_PPWI_SWEEP
from ..workloads import get_workload

EXPERIMENT_ID = "fig6"
DESCRIPTION = "miniBUDE GFLOP/s on NVIDIA H100: Mojo vs CUDA (± fast-math)"

GPU = "h100"
BASELINE = "cuda"


def _variants(baseline: str):
    return (
        ("mojo", "mojo", False),
        (f"{baseline}_fastmath", baseline, True),
        (baseline, baseline, False),
    )


def run(*, quick: bool = True, verify: bool = False,
        gpu: str = GPU, baseline: str = BASELINE) -> ExperimentResult:
    """Regenerate Figure 6 (or Figure 7 when called with the AMD platform)."""
    result = ExperimentResult(EXPERIMENT_ID if gpu == GPU else "fig7",
                              DESCRIPTION if gpu == GPU else
                              DESCRIPTION.replace("NVIDIA H100", "AMD MI300A")
                                         .replace("CUDA", "HIP"))
    ppwis = (1, 2, 4, 8, 32, 128) if quick else DEFAULT_PPWI_SWEEP
    wgsizes = (8, 64)

    workload = get_workload("minibude")
    gflops: Dict[tuple, float] = {}
    verified = []
    for wg in wgsizes:
        table = ResultTable(
            columns=["ppwi"] + [name for name, _, _ in _variants(baseline)],
            title=f"miniBUDE bm1 GFLOP/s on {gpu}, work-group {wg}",
        )
        series = [Series(name) for name, _, _ in _variants(baseline)]
        for ppwi in ppwis:
            row = {"ppwi": ppwi}
            request = workload.make_request(
                gpu=gpu, params={"ppwi": ppwi, "wgsize": wg}, verify=False)
            for s, (name, backend, fast_math) in zip(series, _variants(baseline)):
                res = workload.run(request.replace(
                    backend=backend, fast_math=fast_math, verify=verify))
                if verify:
                    verified.append(res)
                    verify = False  # only verify once per experiment
                gflops[(name, ppwi, wg)] = res.primary_value
                row[name] = res.primary_value
                s.add(ppwi, res.primary_value)
            table.add_row(**row)
        result.add_table(table)
        result.extra_text.append(series_to_csv(series, x_label="ppwi"))

    # Shape checks derived from the paper's reading of the figure.
    small_ppwi, small_wg = ppwis[0], 8
    key = lambda name, p=small_ppwi, w=small_wg: gflops[(name, p, w)]
    if gpu == GPU:
        result.add_comparison(qualitative_comparison(
            "Mojo outperforms CUDA (no fast-math) at small PPWI and work-group",
            key("mojo") > key(baseline),
            detail=f"mojo={key('mojo'):.0f} vs {baseline}={key(baseline):.0f} GFLOP/s",
        ))
        result.add_comparison(ordering_comparison(
            "Mojo sits between CUDA with and without fast-math (small PPWI, wg=64)",
            {name: gflops[(name, small_ppwi, 64)] for name, _, _ in _variants(baseline)},
            expected_order=[f"{baseline}_fastmath", "mojo", baseline],
        ))
    else:
        result.add_comparison(ordering_comparison(
            "Mojo underperforms both HIP variants on MI300A",
            {name: gflops[(name, small_ppwi, 64)] for name, _, _ in _variants(baseline)},
            expected_order=[f"{baseline}_fastmath", baseline, "mojo"],
        ))
    if verified:
        result.add_comparison(verification_comparison(verified))
    result.notes.append(FIGURE_EXPECTATIONS["fig6" if gpu == GPU else "fig7"])
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run(quick=False).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
