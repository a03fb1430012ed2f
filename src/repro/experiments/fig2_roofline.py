"""Figure 2 — roofline placement of the four workloads on the H100.

The paper obtains Figure 2 with NVIDIA Nsight on the CUDA implementations;
here the same placement is derived from the profiled counters of the
simulated CUDA runs.  The check is the figure's message: stencil and
BabelStream sit in the memory-bound region, miniBUDE and Hartree–Fock in the
compute-bound region.
"""

from __future__ import annotations

from ..backends import get_backend
from ..core.kernel import LaunchConfig
from ..gpu.roofline import Roofline, classify_workload
from ..harness.compare import qualitative_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS
from ..harness.results import ExperimentResult, ResultTable
from ..kernels.babelstream import babelstream_kernel_model
from ..kernels.hartreefock import hartree_fock_kernel_model
from ..kernels.minibude import fasten_kernel_model, minibude_launch_config
from ..kernels.stencil import stencil_kernel_model, stencil_launch_config
from ..profiling.counters import collect_counters

EXPERIMENT_ID = "fig2"
DESCRIPTION = "Roofline placement of the four workloads on NVIDIA H100"

#: expected region per workload (the paper's Figure 2 message)
EXPECTED_REGION = {
    "seven_point_stencil": "memory-bound",
    "babelstream_triad": "memory-bound",
    "minibude_fasten": "compute-bound",
    "hartree_fock_eri": "compute-bound",
}


def _workload_runs():
    """(name, model, launch) of the four workloads at the Figure 2 sizes."""
    hf_pairs = 64 * 65 // 2
    return [
        ("seven_point_stencil", stencil_kernel_model(L=512, precision="float64"),
         stencil_launch_config(512, (512, 1, 1))),
        ("babelstream_triad",
         babelstream_kernel_model("triad", n=2 ** 25, precision="float64"),
         LaunchConfig.for_elements(2 ** 25, 1024)),
        ("minibude_fasten",
         fasten_kernel_model(ppwi=2, natlig=26, natpro=938, wgsize=64),
         minibude_launch_config(65536, 2, 64)),
        ("hartree_fock_eri",
         hartree_fock_kernel_model(natoms=64, ngauss=3, surviving_fraction=0.4),
         LaunchConfig.for_elements(hf_pairs * (hf_pairs + 1) // 2, 256)),
    ]


def run(*, gpu: str = "h100", backend: str = "cuda", quick: bool = True) -> ExperimentResult:
    """Regenerate Figure 2."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    roofline = Roofline(gpu)
    be = get_backend(backend)

    table = ResultTable(
        columns=["workload", "precision", "ai_dram_flop_per_byte",
                 "achieved_gflops", "attainable_gflops", "region"],
        title=f"Roofline points on {roofline.spec.full_name} ({be.display_name})",
    )

    for name, model, launch in _workload_runs():
        run_ = be.time(model, gpu, launch, fast_math=be.fast_math_available)
        counters = collect_counters(run_)
        point = roofline.place(
            name,
            flops=counters.total_flops,
            bytes_moved=counters.dram_bytes,
            time_s=run_.timing.kernel_time_s,
            precision=model.dtype.name,
        )
        region = classify_workload(point, roofline)
        expected = EXPECTED_REGION[name]
        result.add_comparison(qualitative_comparison(
            f"{name} is {expected}", region == expected,
            detail=f"classified as {region}",
        ))
        table.add_row(
            workload=name,
            precision=model.dtype.name,
            ai_dram_flop_per_byte=point.arithmetic_intensity,
            achieved_gflops=point.gflops,
            attainable_gflops=roofline.attainable(point.arithmetic_intensity,
                                                  model.dtype.name) / 1e9,
            region=region,
        )
    result.add_table(table)
    result.notes.append(FIGURE_EXPECTATIONS["fig2"])
    result.notes.append(
        f"ridge point at {roofline.ridge_point('float64'):.2f} FLOP/byte (FP64)"
    )
    return result

