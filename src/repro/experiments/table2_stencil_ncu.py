"""Table 2 — seven-point stencil ncu profiling metrics, Mojo vs CUDA on H100.

Profiles the two configurations of the paper's Table 2 (FP64 at L=512 and
FP32 at L=1024, 512/1024-wide blocks) and checks the table's qualitative
content: Mojo uses more registers, shows higher SM throughput and lower
memory throughput, both models issue 7 global loads and 1 store, and the
Mojo/CUDA duration ratio matches the ~0.87 bandwidth efficiency.
"""

from __future__ import annotations

from ..harness.compare import qualitative_comparison, ratio_comparison
from ..harness.paper_data import TABLE2_STENCIL_NCU
from ..harness.results import ExperimentResult, ResultTable
from ..kernels.stencil import stencil_kernel_model, stencil_launch_config
from .driver import ncu_table

EXPERIMENT_ID = "table2"
DESCRIPTION = "Seven-point stencil: Mojo vs CUDA ncu profiling metrics (H100)"

#: the two profiled configurations of Table 2
CONFIGS = (("float64", 512, (512, 1, 1)), ("float32", 1024, (1024, 1, 1)))


def run(*, gpu: str = "h100", quick: bool = True) -> ExperimentResult:
    """Regenerate Table 2."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    table = ResultTable(
        columns=["precision", "L", "backend", "duration_ms", "compute_sm_pct",
                 "memory_pct", "l1_ai", "l2_ai", "dram_ai", "registers",
                 "ldg", "stg"],
        title="Simulated ncu metrics",
    )
    runs = []
    for precision, L, block in CONFIGS:
        model = stencil_kernel_model(L=L, precision=precision)
        launch = stencil_launch_config(L, block)
        runs += [(f"{precision}/{backend}", backend, model, launch,
                  {"precision": precision, "L": L})
                 for backend in ("mojo", "cuda")]
    counters = ncu_table(
        result, table, "Seven-Point Stencil Mojo vs CUDA NCU Profiling Metrics",
        gpu, runs)

    for precision in ("float64", "float32"):
        mojo = counters[f"{precision}/mojo"]
        cuda = counters[f"{precision}/cuda"]
        paper_mojo = TABLE2_STENCIL_NCU[(precision, "mojo")]
        paper_cuda = TABLE2_STENCIL_NCU[(precision, "cuda")]

        result.add_comparison(ratio_comparison(
            f"{precision}: Mojo/CUDA duration ratio",
            mojo.duration_ms / cuda.duration_ms,
            paper_mojo["duration_ms"] / paper_cuda["duration_ms"], rel_tol=0.10,
        ))
        result.add_comparison(qualitative_comparison(
            f"{precision}: Mojo uses more registers than CUDA "
            f"({mojo.registers_per_thread} vs {cuda.registers_per_thread})",
            mojo.registers_per_thread > cuda.registers_per_thread,
        ))
        result.add_comparison(ratio_comparison(
            f"{precision}: Mojo registers/thread",
            mojo.registers_per_thread, paper_mojo["registers"], rel_tol=0.15,
        ))
        result.add_comparison(ratio_comparison(
            f"{precision}: CUDA registers/thread",
            cuda.registers_per_thread, paper_cuda["registers"], rel_tol=0.15,
        ))
        # The paper's headline reading of Table 2: CUDA makes more efficient
        # use of the memory subsystem (higher achieved memory throughput),
        # which is what drives the duration difference.  (The absolute SM%
        # inversion reported by ncu is not reproduced by the instruction-issue
        # model; see EXPERIMENTS.md.)
        result.add_comparison(qualitative_comparison(
            f"{precision}: CUDA achieves higher memory throughput than Mojo",
            mojo.memory_throughput_pct < cuda.memory_throughput_pct,
            detail=f"mojo {mojo.memory_throughput_pct:.1f}% vs "
                   f"cuda {cuda.memory_throughput_pct:.1f}%",
        ))
        result.add_comparison(qualitative_comparison(
            f"{precision}: both models perform 7 global loads and 1 store per cell",
            (mojo.load_global_per_thread == cuda.load_global_per_thread == 7
             and mojo.store_global_per_thread == cuda.store_global_per_thread == 1),
        ))
    return result
