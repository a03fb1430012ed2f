"""Host-side microbenchmarks of the real execution paths.

Unlike the figure/table benches (which evaluate the analytic device model),
these measure genuine wall-clock of the repository's executable components:
the vectorized workload references and the functional thread-level simulator.
They guard against performance regressions in the substrate itself.

``benchmarks/baseline.json`` stores the reference timings; ``python -m repro
bench-compare`` fails when any benchmark here regresses more than 2x against
that baseline.
"""

import numpy as np
import pytest

from repro.core import DType
from repro.core.kernel import LaunchConfig
from repro.gpu.executor import KernelExecutor
from repro.harness.runner import MeasurementProtocol
from repro.kernels.babelstream import BabelStreamArrays
from repro.kernels.hartreefock import compute_schwarz, make_helium_system, surviving_quadruple_fraction
from repro.kernels.hartreefock.reference import fock_quadruple_reference
from repro.kernels.hartreefock.runner import SCHWARZ_MEMO
from repro.kernels.minibude import make_deck, reference_energies
from repro.kernels.stencil import StencilProblem, laplacian_reference
from repro.kernels.stencil.kernel import laplacian_kernel
from repro.kernels.stencil.runner import stencil_launch_config


def test_bench_stencil_reference_l128(benchmark):
    problem = StencilProblem(128, "float64")
    u = problem.initial_field()
    args = problem.inverse_spacing_squared
    result = benchmark(laplacian_reference, u, *args)
    assert result.shape == u.shape


def test_bench_babelstream_reference_iteration(benchmark):
    arrays = BabelStreamArrays(2 ** 22, "float64")
    dot = benchmark(arrays.run_iteration)
    assert np.isfinite(dot)


def test_bench_minibude_reference_energies(benchmark):
    deck = make_deck(natlig=26, natpro=256, ntypes=32, nposes=512, seed=9)
    energies = benchmark(reference_energies, deck)
    assert energies.shape == (512,)


def test_bench_hartreefock_schwarz_screening(benchmark):
    """Schwarz bounds and survivor count for a 96-atom system.

    The memo is cleared every round so this times the bound arithmetic,
    not a memo hit.
    """
    system = make_helium_system(96, 3)

    def run():
        SCHWARZ_MEMO.clear()
        schwarz = compute_schwarz(system)
        return surviving_quadruple_fraction(schwarz)

    fraction = benchmark(run)
    assert 0 < fraction < 1


def test_bench_hartreefock_run_warm(benchmark):
    """Default hartreefock request without verification, setup memos warm.

    Every request after the first for a system pays only for the memo
    lookups (its price included) and the survivor count.
    """
    from repro.workloads import get_workload

    workload = get_workload("hartreefock")
    request = workload.make_request(verify=False)
    workload.run(request)
    result = benchmark(workload.run, request)
    assert result.metrics["kernel_time_ms"] > 0
    assert not result.verification.ran


def test_bench_hartreefock_fock_quadruple_16(benchmark):
    """Batched-ERI unique-quadruple Fock build on the 16-atom helium system."""
    system = make_helium_system(16, 3)
    fock = benchmark(fock_quadruple_reference, system)
    assert fock.shape == (16, 16)
    assert np.all(np.isfinite(fock))


def test_bench_workload_dispatch(benchmark):
    """Unified Workload API dispatch: registry lookup, request validation and
    a timing-model-only stencil run (no functional verification).

    Guards the overhead the workload abstraction adds on top of the memoised
    price (every round after the first is a price-memo hit) — the layer
    every CLI ``bench`` call and sweep configuration now goes through.
    """
    result = benchmark(_stencil_dispatch)
    assert result.metrics["bandwidth_gbs"] > 0
    assert not result.verification.ran


def test_bench_unpriced_workload_dispatch(benchmark):
    """The same dispatch with the price memo cleared every round: each run
    prices its kernel afresh (a compile-memo hit plus the timing model)."""
    from repro.backends.base import PRICE_MEMO

    def run():
        PRICE_MEMO.clear()
        return _stencil_dispatch()

    result = benchmark(run)
    assert result.metrics["bandwidth_gbs"] > 0
    assert PRICE_MEMO.cache_info().misses > 0


def test_bench_compile_miss(benchmark):
    """The lowering behind a compile-memo miss: the memo is cleared every
    round, then each workload's primary kernel model (default request) is
    compiled under every distinct (backend, compiler profile) pair of the
    GPUs the backend supports."""
    from repro.backends import get_backend, list_backends
    from repro.core.compiler import COMPILE_MEMO, compile_kernel
    from repro.gpu.specs import get_gpu, list_gpus
    from repro.workloads import get_workload, list_workloads

    models = [workload.tuning_model(workload.make_request())[0]
              for workload in map(get_workload, list_workloads())]
    targets = list(dict.fromkeys(
        (backend.name, backend.cached_profile(spec))
        for backend in map(get_backend, list_backends())
        for spec in map(get_gpu, list_gpus()) if backend.supports(spec)))

    def run():
        COMPILE_MEMO.clear()
        return [compile_kernel(model, profile, backend_name=name)
                for model in models for name, profile in targets]

    compiled = benchmark(run)
    assert len(models) == 4
    assert {name for name, _ in targets} == set(list_backends())
    assert len(compiled) == len(models) * len(targets)
    assert COMPILE_MEMO.cache_info().misses == len(compiled)


def _stencil_dispatch():
    """A model-only stencil run through the workload registry."""
    from repro.workloads import get_workload

    workload = get_workload("stencil")
    request = workload.make_request(
        gpu="h100", backend="mojo", precision="float32", params={"L": 64},
        protocol=MeasurementProtocol(warmup=0, repeats=3), verify=False)
    return workload.run(request)


def test_bench_cli_dispatch(benchmark):
    """A warm in-process ``repro lint --explain KV103``: command-table
    lookup, the memoised parser and a rule-doc print.

    Guards what every in-process CLI command pays before its handler runs;
    rebuilding the whole argparse tree per call costs about 2 ms.
    """
    import contextlib
    import io

    from repro.cli import main

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["lint", "--explain", "KV103"])

    assert benchmark(run) == 0


def _stencil_executor_fixture(L):
    """Shared setup for the executor-throughput benchmarks."""
    from repro.core.layout import Layout, LayoutTensor

    problem = StencilProblem(L, "float64")
    u_host = problem.initial_field()
    args = problem.inverse_spacing_squared
    layout = Layout.row_major(L, L, L)
    u = LayoutTensor(DType.float64, layout, u_host.reshape(-1).copy(),
                     mut=False)
    f_store = np.zeros(L ** 3)
    f = LayoutTensor(DType.float64, layout, f_store)
    launch = stencil_launch_config(L, (4, 4, 4))
    return f_store, (f, u, L, L, L, *args), launch


def test_bench_functional_executor_stencil(benchmark):
    """Scalar (sequential) simulator throughput on a small stencil grid.

    The mode is pinned so this baseline keeps guarding the one-Python-call-
    per-thread path; the lockstep engine has its own benchmark below.
    """
    executor = KernelExecutor()
    f_store, args, launch = _stencil_executor_fixture(12)

    def run():
        f_store[:] = 0.0
        executor.launch(laplacian_kernel, args, launch, mode="sequential")
        return f_store

    result = benchmark(run)
    assert np.any(result != 0.0)


def test_bench_vectorized_executor_stencil(benchmark):
    """Lockstep (vectorized) simulator throughput on the same stencil grid.

    Same launch as ``test_bench_functional_executor_stencil``; the
    baseline.json pair records the sequential→vectorized speedup the
    ISSUE-3 acceptance demands (≥10x at tier-1 grid sizes).
    """
    executor = KernelExecutor()
    f_store, args, launch = _stencil_executor_fixture(12)

    def run():
        f_store[:] = 0.0
        executor.launch(laplacian_kernel, args, launch, mode="vectorized")
        return f_store

    result = benchmark(run)
    assert np.any(result != 0.0)


def _stencil_sweep_point(L=6):
    """Inputs for one stencil sweep point driven through DeviceContext."""
    from repro.kernels.stencil.kernel import stencil_kernel_model

    problem = StencilProblem(L, "float64")
    u_host = problem.initial_field().reshape(-1)
    args = problem.inverse_spacing_squared
    launch = stencil_launch_config(L, (L, L, L))
    model = stencil_kernel_model(L=L, precision="float64")
    return problem, u_host, args, launch, model


def test_bench_graph_reenqueue_stencil_point(benchmark):
    """One stencil sweep point rebuilt from scratch every repeat.

    This is the pre-graph launch path: a fresh DeviceContext, buffer
    allocation, tensor wrapping, H2D, a kernel enqueue (with its per-launch
    modelled-time prediction) and D2H per iteration.  Paired with
    ``test_bench_graph_replay_stencil_point``: the committed baselines must
    show replay at least 2x faster (guarded in test_benchcheck.py).
    """
    from repro.core.device import DeviceContext
    from repro.core.layout import Layout
    from repro.kernels.stencil.kernel import laplacian_kernel as kern

    L = 6
    problem, u_host, sargs, launch, model = _stencil_sweep_point(L)
    layout = Layout.row_major(L, L, L)

    def run():
        ctx = DeviceContext("h100")
        u_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="u")
        f_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="f")
        u_buf.copy_from_host(u_host)
        u = u_buf.tensor(layout, mut=False)
        f = f_buf.tensor(layout)
        ctx.enqueue_function(kern, f, u, L, L, L, *sargs,
                             grid_dim=launch.grid_dim,
                             block_dim=launch.block_dim,
                             mode="vectorized", model=model)
        ctx.synchronize()
        return f_buf.copy_to_host()

    result = benchmark(run)
    assert np.any(result != 0.0)


def test_bench_graph_replay_stencil_point(benchmark):
    """The same sweep point as a captured DeviceGraph, replayed per repeat.

    Capture happens once in setup; each iteration only rebinds the input
    and re-executes the recorded H2D -> kernel -> D2H sequence, which is the
    launch-overhead amortisation the graph API exists for.
    """
    from repro.core.device import DeviceContext
    from repro.core.layout import Layout
    from repro.kernels.stencil.kernel import laplacian_kernel as kern

    L = 6
    problem, u_host, sargs, launch, model = _stencil_sweep_point(L)
    layout = Layout.row_major(L, L, L)
    ctx = DeviceContext("h100")
    u_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="u")
    f_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="f")
    u = u_buf.tensor(layout, mut=False)
    f = f_buf.tensor(layout)
    with ctx.capture("stencil-point") as graph:
        u_buf.copy_from_host(u_host)
        ctx.enqueue_function(kern, f, u, L, L, L, *sargs,
                             grid_dim=launch.grid_dim,
                             block_dim=launch.block_dim,
                             mode="vectorized", model=model)
        f_buf.copy_to_host()

    def run():
        return graph.replay(u=u_host)["f"]

    result = benchmark(run)
    assert np.any(result != 0.0)


def _stencil_launch_fixture(L, block_shape):
    """Executor inputs for an L^3 stencil at an arbitrary block shape."""
    from repro.core.layout import Layout, LayoutTensor

    problem = StencilProblem(L, "float64")
    u_host = problem.initial_field()
    args = problem.inverse_spacing_squared
    layout = Layout.row_major(L, L, L)
    u = LayoutTensor(DType.float64, layout, u_host.reshape(-1).copy(),
                     mut=False)
    f_store = np.zeros(L ** 3)
    f = LayoutTensor(DType.float64, layout, f_store)
    launch = stencil_launch_config(L, block_shape)
    return f_store, (f, u, L, L, L, *args), launch


#: the ISSUE-5 guard scenario: a 64^3 grid, where the workload's untuned
#: default (512, 1, 1) slab launch covers each x-row with a 8x oversized
#: block — 2.1M simulated lanes against the tuned geometry's 262k
_TUNED_GUARD_L = 64


def _tuned_stencil_block():
    """The block shape `repro tune stencil --param L=64` discovers.

    Found by a seeded (hence deterministic) search against an in-memory
    database, exactly as the CLI would; memoised for the benchmark pair.
    """
    global _TUNED_BLOCK
    if _TUNED_BLOCK is None:
        from repro.tuning import Tuner, TuningDB
        from repro.workloads import get_workload

        wl = get_workload("stencil")
        request = wl.make_request(params={"L": _TUNED_GUARD_L}, verify=False)
        outcome = Tuner(wl, request, db=TuningDB(disk_dir=None),
                        budget=16).search()
        _TUNED_BLOCK = outcome.best.config.params["block_shape"]
    return _TUNED_BLOCK


_TUNED_BLOCK = None


def test_bench_untuned_stencil_launch(benchmark):
    """Functional execution of the guard grid at the untuned default launch.

    Paired with ``test_bench_tuned_stencil_launch``: the committed
    baselines must show the tuned geometry at least 1.2x faster (guarded
    in test_benchcheck.py) — the wall-clock counterpart of the modelled
    speedup ``bench stencil --tuned`` reports.
    """
    executor = KernelExecutor()
    f_store, args, launch = _stencil_launch_fixture(_TUNED_GUARD_L,
                                                    (512, 1, 1))

    def run():
        f_store[:] = 0.0
        executor.launch(laplacian_kernel, args, launch, mode="vectorized")
        return f_store

    result = benchmark(run)
    assert np.any(result != 0.0)


def test_bench_tuned_stencil_launch(benchmark):
    """The same grid at the geometry the tuner discovers for it."""
    executor = KernelExecutor()
    f_store, args, launch = _stencil_launch_fixture(_TUNED_GUARD_L,
                                                    _tuned_stencil_block())

    def run():
        f_store[:] = 0.0
        executor.launch(laplacian_kernel, args, launch, mode="vectorized")
        return f_store

    result = benchmark(run)
    assert np.any(result != 0.0)


def test_bench_vectorized_babelstream_dot(benchmark):
    """Lockstep per-block execution of the barrier/shared-memory Dot kernel."""
    from repro.core.layout import Layout, LayoutTensor
    from repro.kernels.babelstream.kernels import dot_kernel

    n, tb, blocks = 1 << 14, 256, 8
    rng = np.random.default_rng(11)
    a_store = rng.normal(size=n)
    b_store = rng.normal(size=n)
    a = LayoutTensor(DType.float64, Layout.row_major(n), a_store,
                     mut=False)
    b = LayoutTensor(DType.float64, Layout.row_major(n), b_store,
                     mut=False)
    sums = np.zeros(blocks)
    launch = LaunchConfig.make(blocks, tb)
    executor = KernelExecutor()

    def run():
        sums[:] = 0.0
        executor.launch(dot_kernel, (a, b, sums, n, tb), launch,
                        mode="vectorized")
        return sums

    result = benchmark(run)
    np.testing.assert_allclose(result.sum(), a_store @ b_store, rtol=1e-10)


def _science_launch(kernel_name):
    """Verify-sized launch of one of the three loop/atomic/barrier kernels.

    Returns ``(kernel, args, launch, output array)``: fasten on an 8x32
    deck with 64 poses (``fasten``) and on a 12x32 deck with 128 poses
    (``fasten_chunked``: the ligand x protein nest exceeds the lowering
    tier's axis budget, so the ligand loop runs in chunks), the ERI kernel
    on a 4-atom helium system, Dot on n=4096 with 4 blocks of 64 threads.
    Bounds checks are what the region analysis leaves, as in the runners:
    fasten's transforms and forcefield, the ERI kernel's Schwarz, geometry,
    density and Fock tensors, and Dot's grid-stride inputs.
    """
    from repro.core.layout import Layout, LayoutTensor

    def tensor(data, shape=None, dtype=DType.float64):
        flat = np.array(data, dtype=dtype.to_numpy()).reshape(-1)
        return LayoutTensor(dtype, Layout.row_major(*(shape or (flat.size,))),
                            flat)

    if kernel_name.startswith("fasten"):
        from repro.kernels.minibude.kernel import fasten_kernel
        from repro.kernels.minibude.runner import minibude_launch_config

        natlig, nposes = (8, 64) if kernel_name == "fasten" else (12, 128)
        deck = make_deck(natlig=natlig, natpro=32, ntypes=4, nposes=nposes,
                         seed=7)
        f32 = DType.float32
        out = tensor(np.zeros(deck.nposes), dtype=f32)
        args = (2, deck.natlig, deck.natpro,
                tensor(deck.protein_flat(), dtype=f32),
                tensor(deck.ligand_flat(), dtype=f32),
                *(tensor(t, dtype=f32) for t in deck.transforms()),
                out, tensor(deck.forcefield_flat(), dtype=f32), deck.nposes)
        return (fasten_kernel, args,
                minibude_launch_config(deck.nposes, 2, 8), out.ptr)
    if kernel_name == "eri":
        from repro.kernels.hartreefock.kernel import hartree_fock_kernel

        system = make_helium_system(4, 3, spacing=2.5)
        n = system.natoms
        fock = tensor(np.zeros((n, n)), (n, n))
        args = (system.ngauss, n, system.nquads,
                tensor(compute_schwarz(system)), 0.0, tensor(system.xpnt),
                tensor(system.coef), tensor(system.geometry, (n, 3)),
                tensor(system.dens, (n, n)), fock)
        return (hartree_fock_kernel, args,
                LaunchConfig.for_elements(system.nquads, 16), fock.ptr)
    from repro.kernels.babelstream.kernels import dot_kernel

    n, tb, blocks = 4096, 64, 4
    rng = np.random.default_rng(12)
    sums = tensor(np.zeros(blocks))
    args = (tensor(rng.normal(size=n)), tensor(rng.normal(size=n)), sums, n,
            tb)
    return dot_kernel, args, LaunchConfig.make(blocks, tb), sums.ptr


def _bench_science_launch(benchmark, kernel_name, mode):
    kern, args, launch, out = _science_launch(kernel_name)
    executor = KernelExecutor()

    def run():
        out[:] = 0.0
        return executor.launch(kern, args, launch, mode=mode)

    result = benchmark(run)
    assert result.mode == mode
    assert np.any(out != 0.0)


def test_bench_lowered_fasten_launch(benchmark):
    """fasten through the lowering tier: the ligand x protein nest runs
    with its loop indices as array axes.  The committed baselines must
    show it at least 2x faster than the lockstep engine (guarded in
    test_benchcheck.py)."""
    _bench_science_launch(benchmark, "fasten", "lowered")


def test_bench_vectorized_fasten_launch(benchmark):
    """The same fasten launch pinned to the lockstep interpreter."""
    _bench_science_launch(benchmark, "fasten", "vectorized")


def test_bench_lowered_fasten_chunked_launch(benchmark):
    """fasten over the axis budget: the ligand loop runs in chunks of
    atoms, each chunk's ligand x protein block on array axes (at least 2x
    ``vectorized``)."""
    _bench_science_launch(benchmark, "fasten_chunked", "lowered")


def test_bench_vectorized_fasten_chunked_launch(benchmark):
    """The same over-budget fasten launch pinned to the lockstep
    interpreter."""
    _bench_science_launch(benchmark, "fasten_chunked", "vectorized")


def test_bench_lowered_eri_launch(benchmark):
    """The ERI kernel through the lowering tier: primitive-quartet nest as
    array axes, inline Fock atomics (at least 2x ``vectorized``)."""
    _bench_science_launch(benchmark, "eri", "lowered")


def test_bench_vectorized_eri_launch(benchmark):
    """The same ERI launch pinned to the lockstep interpreter."""
    _bench_science_launch(benchmark, "eri", "vectorized")


def test_bench_lowered_dot_launch(benchmark):
    """Dot through the lowering tier: every block at once on a (block,
    lane) axis, the grid-stride trips on a leading axis (at least 10x
    ``vectorized``)."""
    _bench_science_launch(benchmark, "dot", "lowered")


def test_bench_vectorized_dot_launch(benchmark):
    """The same Dot launch pinned to the per-block lockstep interpreter."""
    _bench_science_launch(benchmark, "dot", "vectorized")


def test_bench_lint_vector_safe_hot_path(benchmark):
    """Launch-path vector-safety resolution must stay attribute-read cheap.

    Every dispatch consults ``kernel_vector_safe``, which reads the static
    verifier's verdict; the kernel keeps it after the first resolution, so
    every later one is an ``isinstance`` check and an attribute read.  A
    thousand resolutions per round keeps the timing above clock noise; a
    regression here means analysis (or a memo lookup) leaked into the
    launch path.
    """
    from repro.gpu.vector_executor import kernel_vector_safe

    def run():
        ok = True
        for _ in range(1000):
            ok &= kernel_vector_safe(laplacian_kernel)
        return ok

    assert benchmark(run) is True


def test_bench_plain_callable_dispatch_resolution(benchmark):
    """A plain callable resolves as cheaply as a decorated kernel.

    ``launch``/``instantiate`` accept an undecorated body; it runs as one
    :class:`Kernel` kept on the function (``as_kernel``), so its verdict is
    computed once.  A regression here means each launch wraps the function
    afresh and pays a verifier lookup again.
    """
    from repro.gpu.vector_executor import kernel_vector_safe

    body = laplacian_kernel.fn

    def run():
        ok = True
        for _ in range(1000):
            ok &= kernel_vector_safe(body)
        return ok

    assert benchmark(run) is True


def test_bench_region_analysis_memoised(benchmark):
    """Memoised region concretization must stay dict-lookup cheap.

    The race detector, the bounds checker and the fusion cover test all
    call ``concretize_launch`` per kernel op; after the first analysis of
    a ``(kernel, launch, shapes)`` triple every repeat is two dict
    lookups.  A thousand concretizations per round keeps the timing above
    clock noise; a regression here means the abstract interpreter leaked
    past its memo.
    """
    from repro.analysis.regions import TensorSpec, concretize_launch

    L = 64
    spec = TensorSpec((L, L, L))
    args = (spec, spec, L, L, L, 1.0, 1.0, 1.0, 1.0 / 6.0)
    launch = stencil_launch_config(L, (64, 1, 1))
    concretize_launch(laplacian_kernel, args, launch)   # prime the memo

    def run():
        lr = None
        for _ in range(1000):
            lr = concretize_launch(laplacian_kernel, args, launch)
        return lr

    assert benchmark(run) is not None


def _stencil_graph_capture(L, mode):
    """An H2D -> laplacian -> D2H capture at *L*^3 in one executor *mode*."""
    from repro.core.device import DeviceContext
    from repro.core.layout import Layout
    from repro.kernels.stencil.kernel import stencil_kernel_model

    problem = StencilProblem(L, "float64")
    u_host = problem.initial_field().reshape(-1)
    sargs = problem.inverse_spacing_squared
    launch = stencil_launch_config(L, (64, 4, 1))
    layout = Layout.row_major(L, L, L)
    ctx = DeviceContext("h100")
    u_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="u")
    f_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="f")
    u = u_buf.tensor(layout, mut=False)
    f = f_buf.tensor(layout)
    with ctx.capture(f"stencil-{mode}") as graph:
        u_buf.copy_from_host(u_host)
        ctx.enqueue_function(laplacian_kernel, f, u, L, L, L, *sargs,
                             grid_dim=launch.grid_dim,
                             block_dim=launch.block_dim, mode=mode,
                             model=stencil_kernel_model(L=L,
                                                        precision="float64"))
        f_buf.copy_to_host()
    return graph


def test_bench_vectorized_stencil_graph_replay(benchmark):
    """Stencil graph replay with the kernel pinned to the lockstep engine.

    Paired with ``test_bench_lowered_stencil_graph_replay``: the committed
    baselines must show the NumPy-codegen lowering at least 2x faster on
    the same capture (guarded in test_benchcheck.py).
    """
    graph = _stencil_graph_capture(32, "vectorized")
    result = benchmark(graph.replay)
    assert np.any(result["f"] != 0.0)


def test_bench_vectorized_stencil_probe_replay(benchmark):
    """The stencil tuning probe replayed on the lockstep engine.

    The untuned probe launches (512, 1, 1) blocks on an L=16 grid: 131,072
    lanes in one chunk, whose lane index arrays are built once and
    memoised, not rebuilt on every replay.
    """
    from repro.workloads import get_workload

    workload = get_workload("stencil")
    graph = workload.tuning_probe(workload.make_request(executor="vectorized"))
    result = benchmark(graph.replay)
    assert np.any(result["f"] != 0.0)


def test_bench_lowered_stencil_graph_replay(benchmark):
    """The same stencil capture dispatched through the lowering tier.

    ``mode="lowered"`` compiles the kernel body to whole-array NumPy
    slicing once (memoised on the kernel) and replays execute the
    generated entry — the graph compiler's backend path.
    """
    graph = _stencil_graph_capture(32, "lowered")
    result = benchmark(graph.replay)
    assert np.any(result["f"] != 0.0)


def test_bench_auto_stencil_graph_replay(benchmark):
    """The same stencil capture with the default executor mode.

    ``auto`` is codegen-first: it lowers every declared vector-safe launch
    it can, so the default replay must keep the lowering tier's win over
    the lockstep engine (at least 2x ``vectorized``, guarded in
    test_benchcheck.py).
    """
    graph = _stencil_graph_capture(32, "auto")
    result = benchmark(graph.replay)
    assert np.any(result["f"] != 0.0)


def test_bench_unfused_babelstream_graph_replay(benchmark):
    """The BabelStream Copy/Mul/Add/Triad capture replayed as recorded.

    Uses the workload's shipped lint/tuning capture (n=4096, one stream),
    i.e. exactly the graph ``RunRequest.optimize`` feeds the pass
    pipeline; its default-mode kernels each replay lowered.  Paired with
    the fused variant below: the committed baselines must show the fused
    replay no slower (guarded in test_benchcheck.py).
    """
    from repro.workloads import get_workload

    graph = get_workload("babelstream").lint_graph()
    result = benchmark(graph.replay)
    assert np.all(np.isfinite(result["a"]))


def test_bench_fused_babelstream_graph_replay(benchmark):
    """The same capture after the fusion pass: one fused kernel launch.

    The fused body dispatches through the lowering tier (with automatic
    fallback to the vector executor), so this baseline records the full
    graph-compiler win on the four-kernel STREAM sweep.
    """
    from repro.graphopt import optimize_graph
    from repro.workloads import get_workload

    graph = get_workload("babelstream").lint_graph()
    fused, report = optimize_graph(graph, "fuse")
    assert report.fused and fused.num_kernels == 1
    result = benchmark(fused.replay)
    assert np.all(np.isfinite(result["a"]))


def test_bench_trace_disabled_workload_dispatch(benchmark):
    """Workload.run with the tracing instrumentation present but disabled.

    Identical work to ``test_bench_workload_dispatch``; the committed
    baselines must stay within 2x of each other (guarded in
    test_benchcheck.py) — the observability layer's disabled path is one
    module-attribute read per hook site plus one histogram sample per run.
    """
    from repro.obs.trace import active_collector
    from repro.workloads import get_workload

    assert active_collector() is None
    protocol = MeasurementProtocol(warmup=0, repeats=3)

    def run():
        workload = get_workload("stencil")
        request = workload.make_request(
            gpu="h100", backend="mojo", precision="float32",
            params={"L": 64}, protocol=protocol, verify=False)
        return workload.run(request)

    result = benchmark(run)
    assert result.metrics["bandwidth_gbs"] > 0
    assert not result.verification.ran


def test_bench_traced_stencil_run(benchmark):
    """A span-enabled stencil run: collector install, nested spans and
    context registration on top of the dispatch path.

    Tracing is a debugging surface, not a hot path; this baseline records
    what ``repro trace`` / ``bench --trace`` cost and only guards against
    pathological slowdowns.
    """
    from repro.obs import TraceCollector, install_trace_collector
    from repro.workloads import get_workload

    protocol = MeasurementProtocol(warmup=0, repeats=3)

    def run():
        workload = get_workload("stencil")
        request = workload.make_request(
            gpu="h100", backend="mojo", precision="float32",
            params={"L": 64}, protocol=protocol, verify=False)
        collector = TraceCollector()
        with install_trace_collector(collector):
            workload.run(request)
        return collector

    collector = benchmark(run)
    assert any(s.name == "workload.run" for s in collector.spans)


def test_bench_graph_replay_run_breakdown(benchmark):
    """10,000 untraced replays of a small graph, then one breakdown.

    Untraced replays of one graph in a row share a single timeline entry,
    which ``pipeline_breakdown()`` expands into the replays' events when it
    reads them; this guards the replay path and that expansion.
    """
    from repro.core.device import DeviceContext

    ctx = DeviceContext("h100")
    buf = ctx.enqueue_create_buffer(DType.float64, 64, label="x")
    with ctx.capture("small") as graph:
        buf.copy_from_host(np.zeros(64))
        buf.copy_to_host()

    def run():
        ctx.reset_timeline()
        for _ in range(10_000):
            graph.replay()
        return ctx.pipeline_breakdown()

    breakdown = benchmark(run)
    assert breakdown.operations == 10_000
    assert breakdown.elapsed_ms == ctx.elapsed_ms > 0.0
