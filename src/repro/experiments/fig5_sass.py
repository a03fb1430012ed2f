"""Figure 5 — Mojo vs CUDA generated assembly for the Triad kernel.

Compiles the Triad kernel model with the Mojo and CUDA backends, renders the
side-by-side instruction-mix listing, and checks the paper's three
observations: fewer constant loads for Mojo, more integer adds for Mojo, and
matching global load/store counts.
"""

from __future__ import annotations

from ..backends import get_backend
from ..core.kernel import LaunchConfig
from ..harness.compare import qualitative_comparison
from ..harness.paper_data import FIGURE_EXPECTATIONS
from ..harness.results import ExperimentResult, ResultTable
from ..kernels.babelstream import babelstream_kernel_model
from ..profiling.sass import compare_sass

EXPERIMENT_ID = "fig5"
DESCRIPTION = "Triad kernel instruction mix: Mojo vs CUDA SASS comparison"


def run(*, n: int = 2 ** 25, gpu: str = "h100", quick: bool = True) -> ExperimentResult:
    """Regenerate Figure 5."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    model = babelstream_kernel_model("triad", n=n, precision="float64")
    launch = LaunchConfig.for_elements(n, 1024)

    mojo = get_backend("mojo").compile(model, gpu, launch=launch)
    cuda = get_backend("cuda").compile(model, gpu, launch=launch)
    comparison = compare_sass(mojo, cuda)

    table = ResultTable(
        columns=["instruction", "mojo", "cuda"],
        title="Per-thread instruction mix (Triad)",
    )
    table.add_row(instruction="registers/thread", mojo=mojo.registers_per_thread,
                  cuda=cuda.registers_per_thread)
    opcodes = sorted(set(mojo.instruction_mix) | set(cuda.instruction_mix))
    for opcode in opcodes:
        l = mojo.instruction_mix.get(opcode, 0.0)
        r = cuda.instruction_mix.get(opcode, 0.0)
        if l == 0 and r == 0:
            continue
        table.add_row(instruction=opcode, mojo=round(l, 2), cuda=round(r, 2))
    result.add_table(table)
    result.extra_text.append(comparison.to_text())

    observations = comparison.observations
    labels = {
        "fewer_constant_loads": "Mojo emits fewer constant loads than CUDA",
        "fewer_registers_more_int_ops": "Mojo issues more integer add operations",
        "matching_global_accesses": "global loads/stores match between models",
    }
    for key, label in labels.items():
        result.add_comparison(qualitative_comparison(label, observations[key]))
    result.notes.append(FIGURE_EXPECTATIONS["fig5"])
    return result

