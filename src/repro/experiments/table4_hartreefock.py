"""Table 4 — Hartree–Fock kernel wall-clock times, Mojo vs CUDA and HIP.

Runs the helium systems of the paper's Table 4 on both platforms and checks
the table's structure: Mojo beats CUDA by roughly 2.5x on H100 up to 256
atoms, collapses for the 1024-atom / 6-Gaussian case, and trails HIP by
orders of magnitude on MI300A.
"""

from __future__ import annotations

from ..harness.compare import qualitative_comparison, ratio_comparison
from ..harness.paper_data import TABLE4_HARTREE_FOCK_MS, TEXT_RATIOS
from ..harness.results import ExperimentResult, ResultTable
from ..workloads import get_workload
from .driver import PLATFORMS, run_pair

EXPERIMENT_ID = "table4"
DESCRIPTION = "Hartree-Fock kernel wall-clock times: Mojo vs CUDA and HIP"

#: (natoms, ngauss) rows of Table 4, largest first as in the paper
ROWS = ((1024, 6), (256, 3), (128, 3), (64, 3))


def run(*, quick: bool = True, verify: bool = False) -> ExperimentResult:
    """Regenerate Table 4."""
    result = ExperimentResult(EXPERIMENT_ID, DESCRIPTION)
    rows = ROWS[1:] if quick else ROWS     # the 1024-atom case is the slow one
    table = ResultTable(
        columns=["natoms", "ngauss", "h100_mojo_ms", "h100_cuda_ms",
                 "mi300a_mojo_ms", "mi300a_hip_ms", "surviving_fraction"],
        title="Kernel execution duration (ms)",
    )

    workload = get_workload("hartreefock")
    for natoms, ngauss in rows:
        values = {}
        for gpu, baseline in PLATFORMS:
            request = workload.make_request(
                gpu=gpu, params={"natoms": natoms, "ngauss": ngauss},
                verify=verify)
            verify = False  # only verify once per experiment
            mojo, base = run_pair(request, baseline)
            values[f"{gpu}_mojo_ms"] = mojo.primary_value
            values[f"{gpu}_{baseline}_ms"] = base.primary_value
        table.add_row(natoms=natoms, ngauss=ngauss,
                      surviving_fraction=base.metrics["surviving_fraction"],
                      **values)

        # Shape checks per row.
        key = lambda gpu, backend: values[f"{gpu}_{backend}_ms"]
        label = f"a={natoms} ngauss={ngauss}"
        if (natoms, ngauss) != (1024, 6):
            result.add_comparison(ratio_comparison(
                f"{label}: Mojo speedup over CUDA on H100",
                key("h100", "cuda") / key("h100", "mojo"),
                TEXT_RATIOS["hartreefock_mojo_speedup_vs_cuda_h100"], rel_tol=0.30,
            ))
        else:
            result.add_comparison(qualitative_comparison(
                f"{label}: Mojo collapses versus CUDA on H100",
                key("h100", "mojo") > 5.0 * key("h100", "cuda"),
                detail=f"{key('h100', 'mojo'):,.0f} vs {key('h100', 'cuda'):,.0f} ms",
            ))
        result.add_comparison(qualitative_comparison(
            f"{label}: Mojo trails HIP by >10x on MI300A",
            key("mi300a", "mojo") > 10.0 * key("mi300a", "hip"),
            detail=f"{key('mi300a', 'mojo'):,.0f} vs {key('mi300a', 'hip'):,.0f} ms",
        ))
        # The paper itself reports "abnormal behaviour" for the 512/1024-atom
        # cases, so the largest row gets a wider absolute band.
        abs_tol = 4.0 if (natoms, ngauss) == (1024, 6) else 2.0
        paper_row = TABLE4_HARTREE_FOCK_MS[(natoms, ngauss)]
        for (gpu, backend), paper_value in paper_row.items():
            if paper_value is not None:
                result.add_comparison(ratio_comparison(
                    f"{label}: {backend} on {gpu} duration (ms)",
                    key(gpu, backend), paper_value, rel_tol=abs_tol,
                    detail=f"absolute times are model-scale; ±{abs_tol:.0%} band",
                ))
    result.add_table(table)
    result.notes.append(
        "Surviving-quadruple fractions come from the synthetic helium lattice's "
        "Schwarz bounds; the paper's original decks are not redistributed."
    )
    return result
