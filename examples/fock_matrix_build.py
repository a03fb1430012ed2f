#!/usr/bin/env python
"""Hartree-Fock two-electron Fock build on a helium cluster.

Part 1 builds the two-electron Fock matrix of a small helium cluster with the
portable device kernel (atomic updates through the simulator), checks it
against both host formulations (the quadruple accumulation and the textbook
J - K/2 expression), and reports simple electronic-structure quantities.

Part 2 reproduces the Table 4 view: kernel wall-clock for the paper's helium
systems on H100 (Mojo vs CUDA) and MI300A (Mojo vs HIP), including the Schwarz
screening statistics that drive the cost.

Run with:  python examples/fock_matrix_build.py
"""

import numpy as np

from repro.core.device import DeviceContext
from repro.harness.results import ResultTable
from repro.kernels.hartreefock import (
    compute_schwarz,
    fock_direct_reference,
    make_helium_system,
    run_hartreefock_functional,
    surviving_quadruple_fraction,
    symmetrize,
)
from repro.workloads import get_workload


def build_small_fock(natoms=6, ngauss=3):
    print(f"building the two-electron Fock matrix for He{natoms} (ngauss={ngauss}):")
    fock_device, err = run_hartreefock_functional(
        DeviceContext("h100"), natoms, ngauss, spacing=2.5)
    print(f"  device kernel vs host quadruple accumulation: max error {err:.2e}")

    system = make_helium_system(natoms, ngauss, spacing=2.5)
    fock = symmetrize(fock_device)
    direct = fock_direct_reference(system)
    print(f"  symmetrised device Fock vs J - K/2: max abs diff "
          f"{np.max(np.abs(fock - direct)):.2e}")

    two_electron_energy = 0.5 * np.sum(system.dens * fock)
    print(f"  two-electron energy  : {two_electron_energy:10.4f} hartree")
    print(f"  largest Coulomb term : {np.max(np.diag(fock)):10.4f}")
    print(f"  Fock symmetry error  : {np.max(np.abs(fock - fock.T)):.2e}")


def table4_view():
    print("\nKernel wall-clock times (Table 4 view), synthetic helium lattices:")
    table = ResultTable(columns=["natoms", "survivors", "h100 mojo (ms)",
                                 "h100 cuda (ms)", "mi300a mojo (ms)",
                                 "mi300a hip (ms)"])
    hartreefock = get_workload("hartreefock")
    for natoms in (64, 128, 256):
        system = make_helium_system(natoms, 3)
        survivors = surviving_quadruple_fraction(compute_schwarz(system))
        row = {"natoms": natoms, "survivors": round(survivors, 4)}
        for gpu, backend, col in (("h100", "mojo", "h100 mojo (ms)"),
                                  ("h100", "cuda", "h100 cuda (ms)"),
                                  ("mi300a", "mojo", "mi300a mojo (ms)"),
                                  ("mi300a", "hip", "mi300a hip (ms)")):
            res = hartreefock.run(hartreefock.make_request(
                gpu=gpu, backend=backend, verify=False,
                params={"natoms": natoms, "ngauss": 3}))
            row[col] = round(res.metrics["kernel_time_ms"], 1)
        table.add_row(**row)
    print(table.to_text())
    print("\n(paper, a=256: Mojo 187 / CUDA 472 on H100; Mojo 25,266 / HIP 178 on MI300A)")


def main() -> None:
    build_small_fock()
    table4_view()


if __name__ == "__main__":
    main()
