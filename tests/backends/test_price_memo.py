"""The price memo: one frozen ``BackendRun`` per (compiled kernel, GPU,
launch), shared by ``Backend.time`` and the device runtime's modelled kernel
durations.  The compiled kernel is the compile memo's one instance per
(kernel model, backend profile, fast-math)."""

import dataclasses
import math
from types import MappingProxyType

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.base import GENERIC, PRICE_MEMO, Backend
from repro.core.compiler import COMPILE_MEMO, CompilerProfile, compile_kernel
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.kernel import KernelModel, LaunchConfig
from repro.gpu.specs import get_gpu
from repro.gpu.timing import KernelTimingModel
from repro.kernels.babelstream.kernels import (babelstream_kernel_model,
                                               copy_kernel)
from repro.workloads import get_workload, list_workloads


def _model(**kw):
    defaults = dict(name="priced", dtype=DType.float64, loads_global=2,
                    stores_global=1, flops=8, scalar_args=2,
                    working_values=16)
    defaults.update(kw)
    return KernelModel(**defaults)


LAUNCH = LaunchConfig.for_elements(2 ** 20, 256)


def _assert_same(a, b, where="value"):
    """*a* equals *b* field by field, with the same type at every level."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name),
                         f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and math.isnan(a):
        assert math.isnan(b), where
    else:
        assert a == b, where


def _misses():
    return PRICE_MEMO.cache_info().misses


@pytest.mark.parametrize("name", list_workloads())
def test_hit_equals_miss_on_default_request(name):
    workload = get_workload(name)
    request = workload.make_request()
    PRICE_MEMO.clear()
    cold = workload.run(request)
    misses, hits = _misses(), PRICE_MEMO.cache_info().hits
    warm = workload.run(request)
    assert _misses() == misses and PRICE_MEMO.cache_info().hits > hits
    assert warm.metrics == cold.metrics
    assert any(key.startswith("counter_") for key in warm.metrics)
    assert list(warm.timing) == list(cold.timing)
    for label in cold.timing:
        _assert_same(warm.timing[label], cold.timing[label], label)


def test_a_hit_is_frozen():
    cuda = get_backend("cuda")
    cuda.time(_model(), "h100", LAUNCH)
    run = cuda.time(_model(), "h100", LAUNCH)
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.launch = LaunchConfig.for_elements(64, 64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.timing.kernel_time_ms = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.compiled.notes = ()
    assert isinstance(run.timing.notes, tuple)
    assert isinstance(run.compiled.notes, tuple)
    assert isinstance(run.compiled.instruction_mix, MappingProxyType)
    with pytest.raises(TypeError):
        run.compiled.instruction_mix["LDG"] = 0.0


def test_equal_keys_share_one_run():
    mojo = get_backend("mojo")
    first = mojo.time(_model(), "h100", LAUNCH)
    misses = _misses()
    again = mojo.time(dataclasses.replace(_model()), get_gpu("h100"),
                      dataclasses.replace(LAUNCH))
    assert again is first and _misses() == misses


H100 = get_gpu("h100")


@pytest.mark.parametrize("change", [
    dict(backend="cuda"),
    dict(gpu=get_gpu("mi300a")),
    dict(gpu=dataclasses.replace(H100, mem_bw_gbs=H100.mem_bw_gbs / 2)),
    dict(model=_model(flops=9)),
    dict(launch=LaunchConfig.for_elements(2 ** 20, 128)),
    dict(fast_math=True),
], ids=["backend", "gpu", "replaced-gpu-spec", "model-field", "launch",
        "fast-math"])
def test_each_key_part_misses(change):
    """A spec replaced under the same name is a different GPU: the key
    holds the whole ``GPUSpec``, not its name."""
    base = dict(backend="mojo", gpu=H100, model=_model(), launch=LAUNCH,
                fast_math=False)
    varied = dict(base, **change)
    PRICE_MEMO.clear()

    def timed(args):
        return get_backend(args["backend"]).time(
            args["model"], args["gpu"], args["launch"],
            fast_math=args["fast_math"])

    baseline = timed(base)
    misses = _misses()
    other = timed(varied)
    assert _misses() == misses + 1
    assert other is not baseline
    assert other.gpu == varied["gpu"]


class _Profiled(Backend):
    """A backend whose name says nothing about its profile."""

    name = "same-name"

    def __init__(self, profile):
        self.profile = profile

    def compiler_profile(self, gpu):
        return self.profile


def test_backends_sharing_a_name_price_with_their_own_profiles():
    PRICE_MEMO.clear()
    plain = _Profiled(CompilerProfile(name="plain", register_scale=1.0))
    heavy = _Profiled(CompilerProfile(name="heavy", register_scale=3.0))
    first = plain.time(_model(), H100, LAUNCH)
    misses = _misses()
    other = heavy.time(_model(), H100, LAUNCH)
    assert _misses() == misses + 1
    assert other.compiled.profile is heavy.profile
    compiled = compile_kernel(_model(), heavy.profile, launch=LAUNCH,
                              backend_name="same-name")
    _assert_same(other.timing,
                 KernelTimingModel(H100).predict(compiled, LAUNCH), "timing")
    assert (other.compiled.registers_per_thread
            > first.compiled.registers_per_thread)


def test_one_compile_serves_every_launch():
    PRICE_MEMO.clear()
    COMPILE_MEMO.clear()
    mojo = get_backend("mojo")
    narrow = LaunchConfig.for_elements(2 ** 20, 128)
    wide = mojo.time(_model(), H100, LAUNCH)
    other = mojo.time(_model(), H100, narrow)
    assert COMPILE_MEMO.cache_info().misses == 1
    assert _misses() == 2
    assert (wide.compiled.launch, other.compiled.launch) == (LAUNCH, narrow)
    entry = compile_kernel(_model(), mojo.cached_profile(H100),
                           backend_name="mojo")
    assert entry is compile_kernel(_model(), mojo.cached_profile(H100),
                                   backend_name="mojo")
    assert entry.launch is None


def test_priced_run_matches_an_unmemoised_price():
    PRICE_MEMO.clear()
    cuda = get_backend("cuda")
    run = cuda.time(_model(), "h100", LAUNCH, fast_math=True)
    compiled = compile_kernel(_model(), cuda.compiler_profile(H100),
                              launch=LAUNCH, fast_math=True,
                              backend_name="cuda")
    _assert_same(run.compiled, compiled, "compiled")
    _assert_same(run.timing, KernelTimingModel(H100).predict(compiled, LAUNCH),
                 "timing")


def _captured_duration(model, launch):
    ctx = DeviceContext("h100")
    n = launch.total_threads
    a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
    c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
    with ctx.capture("copy") as graph:
        a_buf.copy_from_host(np.ones(n))
        ctx.enqueue_function(copy_kernel, a_buf.tensor(), c_buf.tensor(), n,
                             grid_dim=launch.grid_dim,
                             block_dim=launch.block_dim, model=model)
    kernel, = [op for op in graph.ops if op.kind == "kernel"]
    return kernel.meta["duration_ms"]


def test_captured_kernel_duration_is_unchanged():
    launch = LaunchConfig.for_elements(1 << 10, 256)
    model = babelstream_kernel_model("copy", n=1 << 10)
    compiled = compile_kernel(model, CompilerProfile(name="generic"),
                              launch=launch, backend_name="generic")
    expected = KernelTimingModel(H100).predict(compiled,
                                               launch).kernel_time_ms
    PRICE_MEMO.clear()
    cold = _captured_duration(model, launch)
    misses = _misses()
    warm = _captured_duration(model, launch)
    assert _misses() == misses
    assert cold == warm == expected > 0.0
    assert GENERIC.time(model, H100, launch).kernel_time_ms == expected
