"""Table 3 — BabelStream ncu profiling metrics, Mojo vs CUDA on H100.

Profiles Copy, Mul, Add and Dot (the columns of the paper's Table 3) and
checks the table's qualitative content: streaming kernels are slightly faster
for Mojo with comparable memory throughput and lower compute throughput than
CUDA... except for the Dot kernel where Mojo is slower and uses more
registers.
"""

from __future__ import annotations

from ..harness.compare import qualitative_comparison, ratio_comparison
from ..harness.paper_data import TABLE3_BABELSTREAM_NCU
from ..harness.results import ExperimentResult, ResultTable
from ..kernels.babelstream import babelstream_op_config
from ..workloads import get_workload
from .driver import ncu_table

EXPERIMENT_ID = "table3"
DESCRIPTION = "BabelStream: Mojo vs CUDA ncu profiling metrics (H100)"

#: the operations profiled in Table 3
OPERATIONS = ("copy", "mul", "add", "dot")


def run(*, gpu: str = "h100", n: int = 2 ** 25, quick: bool = True) -> ExperimentResult:
    """Regenerate Table 3."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    table = ResultTable(
        columns=["operation", "backend", "duration_ms", "compute_sm_pct",
                 "memory_pct", "registers", "ldg", "stg"],
        title=f"Simulated ncu metrics ({n} x float64)",
    )
    tb_size = get_workload("babelstream").default_params()["tb_size"]
    runs = [(f"{op}/{backend}", backend,
             *babelstream_op_config(op, n=n, precision="float64",
                                    tb_size=tb_size, backend=backend,
                                    gpu=gpu),
             {"operation": op})
            for backend in ("mojo", "cuda") for op in OPERATIONS]
    counters = ncu_table(
        result, table, "BabelStream Mojo vs CUDA NCU Profiling Metrics", gpu,
        runs)

    for op in ("copy", "mul", "add"):
        mojo, cuda = counters[f"{op}/mojo"], counters[f"{op}/cuda"]
        paper_ratio = (TABLE3_BABELSTREAM_NCU[(op, "mojo")]["duration_ms"]
                       / TABLE3_BABELSTREAM_NCU[(op, "cuda")]["duration_ms"])
        result.add_comparison(ratio_comparison(
            f"{op}: Mojo/CUDA duration ratio",
            mojo.duration_ms / cuda.duration_ms, paper_ratio, rel_tol=0.10,
        ))
        result.add_comparison(qualitative_comparison(
            f"{op}: Mojo is at least as fast as CUDA",
            mojo.duration_ms <= cuda.duration_ms * 1.005,
        ))
    mojo_dot, cuda_dot = counters["dot/mojo"], counters["dot/cuda"]
    result.add_comparison(qualitative_comparison(
        "dot: Mojo is slower than CUDA",
        mojo_dot.duration_ms > cuda_dot.duration_ms,
        detail=f"{mojo_dot.duration_ms:.3f} vs {cuda_dot.duration_ms:.3f} ms",
    ))
    result.add_comparison(qualitative_comparison(
        "dot: Mojo uses more registers than CUDA",
        mojo_dot.registers_per_thread > cuda_dot.registers_per_thread,
    ))
    result.add_comparison(ratio_comparison(
        "dot: Mojo/CUDA duration ratio",
        mojo_dot.duration_ms / cuda_dot.duration_ms,
        TABLE3_BABELSTREAM_NCU[("dot", "mojo")]["duration_ms"]
        / TABLE3_BABELSTREAM_NCU[("dot", "cuda")]["duration_ms"],
        rel_tol=0.20,
    ))
    return result
