"""End-to-end integration tests across the public API."""

import numpy as np
import pytest

import repro
from repro import (
    DeviceContext,
    DType,
    Layout,
    block_dim,
    block_idx,
    ceildiv,
    kernel,
    thread_idx,
)
from repro.backends import get_backend, vendor_baseline_for
from repro.core.kernel import KernelModel, LaunchConfig


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.2.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackages_present(self):
        import repro.kernels
        import repro.experiments
        import repro.profiling
        import repro.metrics
        import repro.harness
        assert repro.kernels.stencil is not None
        assert len(repro.experiments.EXPERIMENTS) == 10


class TestListing1Workflow:
    """The paper's Listing 1 workflow expressed against this API."""

    def test_fill_one_kernel(self):
        nx = 1024
        block_size = 256
        num_blocks = ceildiv(nx, block_size)

        @kernel
        def fill_one(tensor, n):
            tid = block_idx.x * block_dim.x + thread_idx.x
            if tid < n:
                tensor[tid] = 1

        ctx = DeviceContext("h100")
        d_u = ctx.enqueue_create_buffer(DType.float32, nx)
        u_tensor = d_u.tensor(Layout.row_major(nx))
        ctx.enqueue_function(fill_one, u_tensor, nx,
                             grid_dim=num_blocks, block_dim=block_size)
        ctx.synchronize()
        assert np.all(d_u.copy_to_host() == 1.0)


class TestCrossWorkloadPortability:
    """The paper's headline claims, checked through the public API."""

    def test_same_kernel_source_runs_on_both_vendors(self, ctx, amd_ctx):
        from repro.kernels.stencil import verify_stencil_kernel
        assert verify_stencil_kernel(ctx, L=10) < 1e-12
        assert verify_stencil_kernel(amd_ctx, L=10) < 1e-12

    def test_memory_bound_parity_on_amd_gap_on_nvidia(self):
        from repro.workloads import get_workload
        stencil = get_workload("stencil")
        request = stencil.make_request(params={"L": 512}, verify=False)

        def bandwidth(backend, gpu):
            return stencil.run(request.replace(backend=backend,
                                               gpu=gpu)).primary_value

        assert bandwidth("mojo", "h100") < bandwidth("cuda", "h100")
        assert bandwidth("mojo", "mi300a") == pytest.approx(
            bandwidth("hip", "mi300a"), rel=0.05)

    def test_vendor_baseline_selection(self):
        assert vendor_baseline_for("h100").name == "cuda"
        assert vendor_baseline_for("mi300a").name == "hip"

    def test_backend_timing_consistency_with_metric_equations(self):
        """Bandwidth computed via Eq. 2 equals traffic divided by model time."""
        from repro.kernels.babelstream import babelstream_kernel_model, operation_bytes
        n = 2 ** 24
        model = babelstream_kernel_model("triad", n=n, precision="float64")
        run = get_backend("cuda").time(model, "h100", LaunchConfig.for_elements(n, 1024))
        expected = operation_bytes("triad", n, "float64") / run.timing.kernel_time_s / 1e9
        from repro.kernels.babelstream import operation_bandwidth_gbs
        assert operation_bandwidth_gbs("triad", n, "float64",
                                       run.timing.kernel_time_s) == pytest.approx(expected)


class TestFullPipelineSmoke:
    def test_profile_report_from_public_api(self):
        from repro.kernels.stencil import stencil_kernel_model, stencil_launch_config
        from repro.profiling import NcuReport
        report = NcuReport()
        model = stencil_kernel_model(L=512, precision="float64")
        launch = stencil_launch_config(512, (512, 1, 1))
        for backend in ("mojo", "cuda"):
            report.add_run(backend, get_backend(backend).time(model, "h100", launch))
        text = report.to_text()
        assert "Registers" in text

    def test_experiment_markdown_has_tables_and_checks(self):
        from repro.experiments import run_experiment
        md = run_experiment("fig5").to_markdown()
        assert "| instruction |" in md or "instruction" in md
        assert "Paper comparison" in md
