"""Figure 7 — miniBUDE GFLOP/s on AMD MI300A (Mojo vs HIP ± fast-math).

Same sweep as Figure 6 on the AMD platform; the paper's reading is that Mojo
underperforms both the fast-math and plain HIP builds.
"""

from __future__ import annotations

from ..harness.results import ExperimentResult
from .fig6_minibude_h100 import run as _run_minibude_figure

EXPERIMENT_ID = "fig7"
DESCRIPTION = "miniBUDE GFLOP/s on AMD MI300A: Mojo vs HIP (± fast-math)"


def run(*, quick: bool = True, verify: bool = False) -> ExperimentResult:
    """Regenerate Figure 7."""
    return _run_minibude_figure(quick=quick, verify=verify, gpu="mi300a",
                                baseline="hip")
