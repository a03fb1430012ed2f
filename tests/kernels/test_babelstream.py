"""Tests for the BabelStream workload."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, VerificationError
from repro.kernels.babelstream import (
    BABELSTREAM_OPS,
    SCALAR,
    START_A,
    START_B,
    START_C,
    BabelStreamArrays,
    arrays_moved,
    babelstream_kernel_model,
    babelstream_op_config,
    expected_values,
    operation_bandwidth_gbs,
    operation_bytes,
    run_babelstream_functional,
    verify_arrays,
    verify_dot,
)
from repro.harness.runner import MeasurementProtocol
from repro.workloads import get_workload


def bench(backend, gpu, *, verify=False):
    """One BabelStream run at the paper's 2^25 elements (two samples)."""
    workload = get_workload("babelstream")
    return workload.run(workload.make_request(
        backend=backend, gpu=gpu, verify=verify,
        protocol=MeasurementProtocol(warmup=1, repeats=2)))


def bandwidths(result):
    return {op: result.metrics[f"{op}_gbs"] for op in BABELSTREAM_OPS}


class TestHostReference:
    def test_initial_values(self):
        arrays = BabelStreamArrays(100)
        assert np.all(arrays.a == START_A)
        assert np.all(arrays.b == START_B)
        assert np.all(arrays.c == START_C)

    def test_operations_semantics(self):
        arrays = BabelStreamArrays(10)
        arrays.copy()
        assert np.all(arrays.c == START_A)
        arrays.mul()
        assert np.allclose(arrays.b, SCALAR * START_A)
        arrays.add()
        assert np.allclose(arrays.c, arrays.a + arrays.b)
        arrays.triad()
        assert np.allclose(arrays.a, arrays.b + SCALAR * arrays.c)

    def test_dot(self):
        arrays = BabelStreamArrays(10)
        assert arrays.dot() == pytest.approx(10 * START_A * START_B)

    def test_scalar_replay_matches_arrays(self):
        arrays = BabelStreamArrays(32)
        for _ in range(3):
            arrays.run_iteration()
        errors = verify_arrays(arrays, 3)
        assert max(errors.values()) < 1e-12

    def test_verify_detects_mismatch(self):
        arrays = BabelStreamArrays(32)
        arrays.run_iteration()
        arrays.a[5] += 1.0
        with pytest.raises(VerificationError):
            verify_arrays(arrays, 1)

    def test_verify_dot_detects_mismatch(self):
        arrays = BabelStreamArrays(16)
        with pytest.raises(VerificationError):
            verify_dot(arrays.dot() * 2.0, arrays)

    def test_expected_values_iteration_growth(self):
        a1, _, _ = expected_values(1)
        a5, _, _ = expected_values(5)
        assert a1 != a5


class TestDeviceKernels:
    def test_functional_run_verifies(self, ctx):
        errors = run_babelstream_functional(ctx, n=256, tb_size=16,
                                            dot_blocks=2, num_iterations=2)
        assert max(errors.values()) < 1e-10

    def test_functional_run_float32(self, ctx):
        errors = run_babelstream_functional(ctx, n=128, precision="float32",
                                            tb_size=16, dot_blocks=2)
        assert max(errors.values()) < 1e-5

    def test_functional_run_on_amd(self, amd_ctx):
        errors = run_babelstream_functional(amd_ctx, n=128, tb_size=16,
                                            dot_blocks=2)
        assert max(errors.values()) < 1e-10


class TestMetrics:
    def test_arrays_moved_per_eq2(self):
        assert arrays_moved("copy") == 2
        assert arrays_moved("mul") == 2
        assert arrays_moved("add") == 3
        assert arrays_moved("triad") == 3
        assert arrays_moved("dot") == 2

    def test_operation_bytes(self):
        assert operation_bytes("triad", 1000, "float64") == 3 * 1000 * 8

    def test_bandwidth(self):
        assert operation_bandwidth_gbs("copy", 10 ** 9, "float32", 1.0) == pytest.approx(8.0)

    def test_unknown_operation(self):
        with pytest.raises(ConfigurationError):
            arrays_moved("fma")

    def test_invalid_time(self):
        with pytest.raises(ConfigurationError):
            operation_bandwidth_gbs("copy", 100, "float64", 0.0)

    def test_kernel_models(self):
        copy = babelstream_kernel_model("copy", n=1024)
        add = babelstream_kernel_model("add", n=1024)
        dot = babelstream_kernel_model("dot", n=1024, elements_per_thread=8,
                                       tb_size=256)
        assert copy.loads_global == 1 and copy.stores_global == 1
        assert add.loads_global == 2
        assert dot.uses_shared and dot.barriers > 0
        assert dot.shared_bytes_per_block == 256 * 8

    def test_unknown_model_op(self):
        with pytest.raises(ValueError):
            babelstream_kernel_model("saxpy", n=10)


class TestBenchmark:
    def test_run_reports_all_operations(self):
        res = bench("cuda", "h100")
        assert set(res.timing) == set(BABELSTREAM_OPS)
        assert all(v > 0 for v in bandwidths(res).values())

    def test_bandwidths_below_peak(self):
        res = bench("cuda", "h100")
        assert all(v <= 3900 for v in bandwidths(res).values())

    def test_mojo_beats_cuda_on_streaming_ops(self):
        mojo = bandwidths(bench("mojo", "h100"))
        cuda = bandwidths(bench("cuda", "h100"))
        for op in ("copy", "mul", "add", "triad"):
            assert mojo[op] >= cuda[op]

    def test_mojo_loses_dot_on_h100(self):
        mojo = bandwidths(bench("mojo", "h100"))
        cuda = bandwidths(bench("cuda", "h100"))
        ratio = mojo["dot"] / cuda["dot"]
        assert 0.70 < ratio < 0.88           # paper: 0.78

    def test_mojo_matches_hip_on_mi300a(self):
        mojo = bandwidths(bench("mojo", "mi300a"))
        hip = bandwidths(bench("hip", "mi300a"))
        for op in BABELSTREAM_OPS:
            assert mojo[op] == pytest.approx(hip[op], rel=0.06)

    def test_add_and_triad_move_more_bytes_than_copy(self):
        timing = bench("cuda", "h100").timing
        # add/triad move 3 arrays so their kernel time is longer than copy's
        assert timing["add"].kernel_time_ms > timing["copy"].kernel_time_ms
        assert timing["triad"].kernel_time_ms > timing["copy"].kernel_time_ms

    def test_with_verification(self):
        res = bench("mojo", "h100", verify=True)
        assert res.verification.ran and res.verification.passed
        assert res.verification.max_rel_error < 1e-10

    def test_benchmark_launch_configs(self):
        def launch(op, backend):
            return babelstream_op_config(op, n=2 ** 25, precision="float64",
                                         tb_size=1024, backend=backend,
                                         gpu="h100")[1]

        assert launch("copy", "cuda").total_threads >= 2 ** 25
        assert launch("dot", "cuda").num_blocks == 4 * 132
        # the portable backend sizes Dot's grid from the element count
        assert launch("dot", "mojo").num_blocks == 4096
