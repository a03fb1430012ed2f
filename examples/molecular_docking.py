#!/usr/bin/env python
"""In-silico molecular docking with the miniBUDE fasten kernel.

Part 1 docks a small synthetic ligand against a reduced protein: every pose's
energy is computed by the portable device kernel through the functional
simulator, verified against the vectorized reference, and the best-scoring
poses are reported — the actual task the Bristol docking engine performs.

Part 2 reproduces the Figure 6/7 view on the bm1-sized deck: GFLOP/s (Eq. 3)
versus poses-per-work-item for Mojo and the vendor baselines, with and without
fast-math.

Run with:  python examples/molecular_docking.py
"""

import numpy as np

from repro.core.device import DeviceContext
from repro.harness.plotting import Series, line_chart
from repro.kernels.minibude import (
    make_deck,
    reference_energies,
    run_fasten_functional,
)
from repro.workloads import get_workload


def dock_small_complex():
    """Dock 128 poses of an 8-atom ligand against a 64-atom pocket."""
    deck = make_deck(natlig=8, natpro=64, ntypes=16, nposes=128, seed=42,
                     name="demo-complex")
    print(f"docking {deck}")
    energies, err = run_fasten_functional(DeviceContext("h100"), deck,
                                          ppwi=2, wgsize=8)
    print(f"  device kernel vs reference: max relative error {err:.2e}")

    best = np.argsort(energies)[:5]
    print("  five best-scoring poses (lower energy is better):")
    for rank, pose in enumerate(best, 1):
        angles = deck.poses[:3, pose]
        print(f"    #{rank}: pose {pose:4d}  energy {energies[pose]:10.3f}  "
              f"rotation ({angles[0]:.2f}, {angles[1]:.2f}, {angles[2]:.2f}) rad")
    return energies


def ppwi_sweep():
    """GFLOP/s vs PPWI on both GPUs (Figures 6 and 7)."""
    ppwis = (1, 2, 4, 8, 16, 32)
    configs = [
        ("h100/mojo", "mojo", "h100", False),
        ("h100/cuda+fm", "cuda", "h100", True),
        ("h100/cuda", "cuda", "h100", False),
        ("mi300a/mojo", "mojo", "mi300a", False),
        ("mi300a/hip+fm", "hip", "mi300a", True),
    ]
    minibude = get_workload("minibude")
    series = []
    for label, backend, gpu, fast_math in configs:
        s = Series(label)
        for ppwi in ppwis:
            res = minibude.run(minibude.make_request(
                gpu=gpu, backend=backend, fast_math=fast_math, verify=False,
                params={"ppwi": ppwi, "wgsize": 64}))
            s.add(ppwi, res.metrics["gflops"])
        series.append(s)
    print(line_chart(series, title="miniBUDE bm1 GFLOP/s vs PPWI (wg=64)", unit=""))


def main() -> None:
    dock_small_complex()
    print()
    ppwi_sweep()


if __name__ == "__main__":
    main()
