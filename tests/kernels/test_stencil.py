"""Tests for the seven-point stencil workload."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, VerificationError
from repro.kernels.stencil import (
    StencilProblem,
    effective_bandwidth_gbs,
    effective_fetch_bytes,
    effective_write_bytes,
    laplacian_reference,
    stencil_kernel_model,
    stencil_launch_config,
    verify_laplacian,
    verify_stencil_kernel,
)
from repro.harness.runner import MeasurementProtocol
from repro.workloads import get_workload


def bench(backend, gpu, *, precision="float64", repeats=2, verify=False,
          **params):
    """One stencil run at the paper's L=512 through the workload API."""
    workload = get_workload("stencil")
    return workload.run(workload.make_request(
        backend=backend, gpu=gpu, precision=precision, verify=verify,
        params={"L": 512, **params},
        protocol=MeasurementProtocol(warmup=1, repeats=repeats)))


class TestStencilProblem:
    def test_shape_and_sizes(self):
        p = StencilProblem(16)
        assert p.shape == (16, 16, 16)
        assert p.num_cells == 4096
        assert p.num_interior == 14 ** 3

    def test_spacing(self):
        p = StencilProblem(11, extent=1.0)
        assert p.spacing[0] == pytest.approx(0.1)

    def test_inverse_spacing(self):
        p = StencilProblem(11, extent=1.0)
        invhx2, invhy2, invhz2, invhxyz2 = p.inverse_spacing_squared
        assert invhx2 == pytest.approx(100.0)
        assert invhxyz2 == pytest.approx(-600.0)

    def test_initial_field_quadratic(self):
        p = StencilProblem(8)
        u = p.initial_field()
        h = p.spacing[0]
        assert u[0, 0, 0] == 0.0
        assert u[1, 2, 3] == pytest.approx((1 * h) ** 2 + (2 * h) ** 2 + (3 * h) ** 2,
                                           rel=1e-6)

    def test_initial_field_is_memoised_and_read_only(self):
        first = StencilProblem(8).initial_field()
        assert StencilProblem(8).initial_field() is first
        assert StencilProblem(8, "float32").initial_field() is not first
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0

    def test_precision_dtype(self):
        assert StencilProblem(8, "float32").dtype.name == "float32"

    def test_memory_footprint(self):
        p = StencilProblem(16, "float64")
        assert p.memory_footprint_bytes() == 2 * 4096 * 8

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            StencilProblem(2)

    def test_integer_precision_rejected(self):
        with pytest.raises(ConfigurationError):
            StencilProblem(8, "int32")


class TestReference:
    def test_quadratic_field_gives_constant_laplacian(self):
        p = StencilProblem(12)
        u = p.initial_field()
        f = laplacian_reference(u, *p.inverse_spacing_squared)
        interior = f[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(interior, 6.0, rtol=1e-7)

    def test_boundaries_untouched(self):
        p = StencilProblem(8)
        f = laplacian_reference(p.initial_field(), *p.inverse_spacing_squared)
        assert np.all(f[0, :, :] == 0.0) and np.all(f[:, :, -1] == 0.0)

    def test_verify_passes_on_reference(self):
        p = StencilProblem(8)
        u = p.initial_field()
        f = laplacian_reference(u, *p.inverse_spacing_squared)
        assert verify_laplacian(f, f) == 0.0

    def test_verify_detects_corruption(self):
        p = StencilProblem(8)
        u = p.initial_field()
        f = laplacian_reference(u, *p.inverse_spacing_squared)
        f[4, 4, 4] += 1.0
        with pytest.raises(VerificationError):
            verify_laplacian(f, p.expected_laplacian())

    def test_rank_check(self):
        with pytest.raises(VerificationError):
            laplacian_reference(np.zeros((4, 4)), 1, 1, 1, -6)


class TestDeviceKernel:
    def test_matches_reference_float64(self, ctx):
        err = verify_stencil_kernel(ctx, L=10, precision="float64")
        assert err < 1e-12

    def test_matches_reference_float32(self, ctx):
        err = verify_stencil_kernel(ctx, L=10, precision="float32")
        assert err < 1e-5

    def test_non_cubic_block_shape(self, ctx):
        err = verify_stencil_kernel(ctx, L=12, block_shape=(4, 2, 2))
        assert err < 1e-12


class TestMetrics:
    def test_eq1_fetch_bytes(self):
        # (L^3 - 8 - 12(L-2)) * sizeof
        assert effective_fetch_bytes(512, "float64") == (512 ** 3 - 8 - 12 * 510) * 8

    def test_eq1_write_bytes(self):
        assert effective_write_bytes(512, "float32") == 510 ** 3 * 4

    def test_bandwidth_from_time(self):
        total = effective_fetch_bytes(128, "float64") + effective_write_bytes(128, "float64")
        # bytes / 1 ms, expressed in GB/s
        assert effective_bandwidth_gbs(128, "float64", 1e-3) == pytest.approx(total / 1e6)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            effective_fetch_bytes(2, "float64")
        with pytest.raises(ConfigurationError):
            effective_bandwidth_gbs(128, "float64", 0.0)

    def test_kernel_model_characteristics(self):
        model = stencil_kernel_model(L=512, precision="float64")
        assert model.loads_global == 7
        assert model.stores_global == 1
        assert model.memory_pattern == "stencil3d"
        assert 0 < model.active_fraction <= 1

    def test_launch_config_covers_domain(self):
        launch = stencil_launch_config(512, (512, 1, 1))
        assert launch.grid_dim.as_tuple() == (1, 512, 512)
        assert launch.total_threads >= 512 ** 3


class TestRunner:
    def test_run_produces_sensible_bandwidth(self):
        res = bench("cuda", "h100", repeats=4)
        assert 500 < res.metrics["bandwidth_gbs"] < 3900
        assert res.metrics["kernel_time_ms"] > 0
        assert len(res.samples["bandwidth_gbs"]) == 4

    def test_run_with_verification(self):
        res = bench("mojo", "h100", verify=True)
        assert res.verification.ran and res.verification.passed
        assert res.verification.max_rel_error < 1e-10

    def test_mojo_slower_than_cuda_on_h100(self):
        mojo = bench("mojo", "h100")
        cuda = bench("cuda", "h100")
        ratio = mojo.primary_value / cuda.primary_value
        assert 0.80 < ratio < 0.95           # paper: ~87%

    def test_mojo_matches_hip_on_mi300a(self):
        mojo = bench("mojo", "mi300a")
        hip = bench("hip", "mi300a")
        assert mojo.primary_value == pytest.approx(hip.primary_value, rel=0.05)

    def test_samples_are_reproducible(self):
        a = bench("mojo", "h100", repeats=4, seed=1)
        b = bench("mojo", "h100", repeats=4, seed=1)
        assert a.samples == b.samples

    def test_fp32_has_higher_bandwidth_than_fp64_time(self):
        fp32 = bench("cuda", "h100", precision="float32")
        fp64 = bench("cuda", "h100", precision="float64")
        # Same cell count, half the bytes: FP32 must be faster in time.
        assert fp32.metrics["kernel_time_ms"] < fp64.metrics["kernel_time_ms"]
