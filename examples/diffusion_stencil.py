#!/usr/bin/env python
"""Heat diffusion with the seven-point stencil (the paper's first workload).

Part 1 runs an explicit diffusion time-stepper on a small 3-D grid using the
portable device kernel through the functional simulator and checks it against
a NumPy reference step by step.

Part 2 reproduces the Figure-3 view: effective bandwidth (Eq. 1) of the
production-size stencil on H100 (Mojo vs CUDA) and MI300A (Mojo vs HIP).

Run with:  python examples/diffusion_stencil.py
"""

import numpy as np

from repro.core import DeviceContext, Layout
from repro.harness.plotting import bar_chart
from repro.kernels.stencil import (
    StencilProblem,
    laplacian_kernel,
    laplacian_reference,
    stencil_launch_config,
)
from repro.workloads import get_workload


def diffusion_step_reference(u, alpha_dt, inv):
    """One explicit Euler step of du/dt = alpha * Laplacian(u)."""
    return u + alpha_dt * laplacian_reference(u, *inv)


def simulate_on_device(L=16, steps=5, alpha_dt=1e-5):
    """Run the explicit stepper with the device kernel and verify every step."""
    problem = StencilProblem(L, "float64")
    inv = problem.inverse_spacing_squared
    u_host = problem.initial_field()

    ctx = DeviceContext("h100")
    layout = Layout.row_major(L, L, L)
    d_u = ctx.enqueue_create_buffer(problem.dtype, problem.num_cells, label="u")
    d_f = ctx.enqueue_create_buffer(problem.dtype, problem.num_cells, label="f")
    d_u.copy_from_host(u_host)
    launch = stencil_launch_config(L, (8, 4, 4))

    reference = u_host.copy()
    for step in range(steps):
        u = d_u.tensor(layout, mut=False)
        f = d_f.tensor(layout)
        d_f.fill(0.0)
        ctx.enqueue_function(laplacian_kernel, f, u, L, L, L, *inv,
                             grid_dim=launch.grid_dim, block_dim=launch.block_dim)
        ctx.synchronize()
        lap = d_f.copy_to_host().reshape(problem.shape)
        updated = d_u.copy_to_host().reshape(problem.shape) + alpha_dt * lap
        d_u.copy_from_host(updated)

        reference = diffusion_step_reference(reference, alpha_dt, inv)
        err = np.max(np.abs(updated - reference))
        print(f"  step {step + 1}: max |device - reference| = {err:.3e}")
        assert err < 1e-12
    return reference


def figure3_view():
    """Effective bandwidth of the production-size stencil (Figure 3)."""
    print("\nEffective stencil bandwidth, Eq. 1 (L=512, FP64):")
    stencil = get_workload("stencil")
    request = stencil.make_request(precision="float64", params={"L": 512},
                                   verify=False)
    results = {}
    for gpu, backends in (("h100", ("mojo", "cuda")), ("mi300a", ("mojo", "hip"))):
        for backend in backends:
            res = stencil.run(request.replace(gpu=gpu, backend=backend))
            results[f"{gpu}/{backend}"] = res.metrics["bandwidth_gbs"]
    print(bar_chart(results, unit=" GB/s"))


def main() -> None:
    print("Explicit diffusion on a 16^3 grid (device kernel vs reference):")
    simulate_on_device()
    figure3_view()


if __name__ == "__main__":
    main()
