"""Differential execution: every shipped kernel in every executor mode.

The verify-path launches of the four science kernels (stencil, the five
BabelStream kernels at float64 and at float32, miniBUDE's fasten and the
Hartree–Fock ERI kernel) run on small seeded inputs in ``auto``, ``lowered``, ``vectorized`` and the
scalar mode each kernel needs, once with the region analysis deciding which
tensor arguments run without bounds checks and once with every access
checked.  Outputs must be equal byte for byte
(so ``-0.0`` and ``0.0`` differ and equal NaNs agree), the
:class:`~repro.gpu.executor.ExecutionCounters` and
``shared_bytes_per_block`` identical, and ``auto`` (and its alias
``lowered``) must report the tier that actually ran: every shipped kernel
lowers.  One larger input per kernel checks ``auto`` against
``vectorized`` beyond the lowering tier's loop-axis budget, a stencil launch
whose lane chunks span many blocks runs through the memoised one-chunk and
the transient multi-chunk lane geometry, and an out-of-range launch must
raise the same exception, with the same message, in both.  One fixture
kernel that is not shipped, a grid-stride reduction whose trip count
differs between lanes and between blocks (one block runs no trip at all),
holds the lowering tier's trip axis and prefix slices to the same rules;
a variant that rebinds constants from before the loop inside it must not
take the trip axis, and a float32 variant from a Python-float start must
type a masked-off lane's load alike in every mode.  A float64 scalar index, which the interpreters
truncate, must give the same result in every mode.

The one stated tolerance: the Hartree–Fock kernel's scalar path evaluates
the Boys function with ``math.erf`` per thread where the lane path uses a
vectorised erf, so its sequential Fock matrix agrees to ``SCALAR_ERF_RTOL``
relative (measured ~1e-15) rather than bitwise.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analysis.regions import LaunchRegions
from repro.core.dtypes import DType
from repro.core.errors import LayoutError
from repro.core.intrinsics import (
    any_lane,
    barrier,
    block_dim,
    block_idx,
    compress_lanes,
    masked_gather,
    masked_store,
    shared_array,
    thread_idx,
)
from repro.core.kernel import LaunchConfig, kernel
from repro.core.layout import Layout, LayoutTensor
from repro.core.memo import Memo
from repro.gpu import vector_executor
from repro.gpu.executor import KernelExecutor
from repro.graphopt import lower as lower_mod
from repro.graphopt import lower_launch, lower_source
from repro.kernels.babelstream.kernels import (
    SCALAR,
    add_kernel,
    copy_kernel,
    dot_kernel,
    mul_kernel,
    triad_kernel,
)
from repro.kernels.hartreefock import make_helium_system
from repro.kernels.hartreefock.kernel import hartree_fock_kernel
from repro.kernels.hartreefock.runner import compute_schwarz
from repro.kernels.minibude import make_deck
from repro.kernels.minibude.kernel import fasten_kernel
from repro.kernels.minibude.runner import minibude_launch_config
from repro.kernels.stencil import StencilProblem
from repro.kernels.stencil.kernel import laplacian_kernel
from repro.kernels.stencil.runner import stencil_launch_config

MODES = ("auto", "lowered", "vectorized", "sequential")
#: Hartree–Fock scalar-vs-lane tolerance (``math.erf`` vs vectorised erf)
SCALAR_ERF_RTOL = 1e-13


def _tensor(data, shape=None, dtype=DType.float64, mut=True):
    flat = np.array(data, dtype=dtype.to_numpy()).reshape(-1)
    layout = Layout.row_major(*(shape or (flat.size,)))
    return LayoutTensor(dtype, layout, flat, mut=mut)


def _stencil(ex, mode, L=12, block=(8, 4, 4)):
    problem = StencilProblem(L, "float64")
    u = _tensor(problem.initial_field(), (L, L, L), mut=False)
    f = _tensor(np.zeros(L ** 3), (L, L, L))
    res = ex.launch(laplacian_kernel,
                    (f, u, L, L, L, *problem.inverse_spacing_squared),
                    stencil_launch_config(L, block), mode=mode)
    return {"f": f.ptr}, {"laplacian_kernel": res}


def _babelstream(ex, mode, dtype=DType.float64):
    n, tb, blocks = 1000, 64, 4                  # n % tb != 0: tail guard
    rng = np.random.default_rng(13)
    a, b, c = (_tensor(rng.normal(size=n), dtype=dtype) for _ in range(3))
    sums = _tensor(np.zeros(blocks), dtype=dtype)
    launch = LaunchConfig.for_elements(n, tb)
    results = {}
    for kern, args in ((copy_kernel, (a, c, n)),
                       (mul_kernel, (b, c, SCALAR, n)),
                       (add_kernel, (a, b, c, n)),
                       (triad_kernel, (a, b, c, SCALAR, n))):
        results[kern.name] = ex.launch(kern, args, launch, mode=mode)
    # Dot synchronises through shared memory: its scalar mode is the
    # cooperative pool, exactly as the BabelStream runner maps it.
    results["dot_kernel"] = ex.launch(
        dot_kernel, (a, b, sums, n, tb), LaunchConfig.make(blocks, tb),
        mode="cooperative" if mode == "sequential" else mode)
    return {"a": a.ptr, "b": b.ptr, "c": c.ptr, "sums": sums.ptr}, results


def _fasten(ex, mode, natlig=6, natpro=24, nposes=32, wgsize=8):
    deck = make_deck(natlig=natlig, natpro=natpro, ntypes=4, nposes=nposes,
                     seed=5)
    f32 = DType.float32
    etotals = _tensor(np.zeros(deck.nposes), dtype=f32)
    args = (2, deck.natlig, deck.natpro,
            _tensor(deck.protein_flat(), dtype=f32),
            _tensor(deck.ligand_flat(), dtype=f32),
            *(_tensor(t, dtype=f32) for t in deck.transforms()),
            etotals, _tensor(deck.forcefield_flat(), dtype=f32), deck.nposes)
    res = ex.launch(fasten_kernel, args,
                    minibude_launch_config(deck.nposes, 2, wgsize),
                    mode=mode)
    return {"etotals": etotals.ptr}, {"fasten_kernel": res}


def _eri(ex, mode, natoms=4):
    system = make_helium_system(natoms, 3, spacing=2.5)
    n = system.natoms
    schwarz = compute_schwarz(system)
    fock = _tensor(np.zeros((n, n)), (n, n))
    args = (system.ngauss, n, system.nquads, _tensor(schwarz), 0.0,
            _tensor(system.xpnt), _tensor(system.coef),
            _tensor(system.geometry, (n, 3)), _tensor(system.dens, (n, n)),
            fock)
    res = ex.launch(hartree_fock_kernel, args,
                    LaunchConfig.for_elements(system.nquads, 16), mode=mode)
    return {"fock": fock.ptr}, {"hartree_fock_kernel": res}


@kernel(name="ragged_stride_kernel")
def ragged_stride_kernel(a, sums, n, stride, spread):
    """A grid-stride sum whose trip count differs between lanes and blocks.

    Lane ``t`` of block ``b`` starts at ``b * spread + 3 * t``, so lanes of
    one block leave the loop on different trips and a block starting past
    ``n`` runs none.  The sum starts at ``-0.0``: a block with no trip must
    store ``-0.0``, which only an exact "no add" for the trips it does not
    run preserves.  A shared-memory tree reduction finishes each block.
    """
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * spread + tid * 3
    acc = -0.0
    while any_lane(i < n):
        m = i < n
        acc = acc + masked_gather(a, i, m) * 2.0
        i = i + stride
    sh[tid] = acc
    offset = block_dim.x // 2
    while offset > 0:
        barrier()
        m = tid < offset
        masked_store(sh, tid, masked_gather(sh, tid, m)
                     + masked_gather(sh, tid + offset, m), m)
        offset //= 2
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


def _ragged(ex, mode):
    # 4 blocks of 8 lanes: block b starts at [50b, 50b + 21]; with n = 140
    # blocks 0-2 run 9, 6 and 3 trips (some of their lanes one trip fewer)
    # and block 3 runs none
    n, stride, spread = 140, 16, 50
    rng = np.random.default_rng(41)
    a = _tensor(rng.normal(size=n))
    sums = _tensor(np.zeros(4))
    res = ex.launch(ragged_stride_kernel, (a, sums, n, stride, spread),
                    LaunchConfig.make(4, 8),
                    mode="cooperative" if mode == "sequential" else mode)
    return {"sums": sums.ptr}, {"ragged_stride_kernel": res}


@kernel(name="ragged_rebound_kernel")
def ragged_rebound_kernel(a, sums, flags, counts, n, stride, spread, size):
    """The grid-stride sum with two bindings from before the loop rebound
    inside it: ``flag = 1.0`` (a block that runs no trip keeps ``0.5``)
    and ``c += 1`` (once per trip, not once).  Lanes of a block start one
    apart, so they all run the block's trip count, which ``c`` needs in
    the scalar modes, where each thread counts its own trips.
    """
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = block_idx.x * spread + tid
    acc = -0.0
    flag = 0.5
    c = 0
    while any_lane(i < n):
        acc = acc + masked_gather(a, i, i < n) * 2.0
        flag = 1.0
        c += 1
        i = i + stride
    g = block_idx.x * block_dim.x + tid
    sh[tid] = acc
    barrier()
    m = g < size
    masked_store(sums, g, sh[tid], m)
    masked_store(flags, g, flag, m)
    masked_store(counts, g, c, m)


def _ragged_rebound(ex, mode):
    # block b's lanes start at [50b, 50b + 7]: with n = 140 and stride 16
    # blocks 0-3 run 9, 6, 3 and 0 trips on every lane
    rng = np.random.default_rng(43)
    a = _tensor(rng.normal(size=140))
    sums, flags, counts = (_tensor(np.zeros(32)) for _ in range(3))
    res = ex.launch(ragged_rebound_kernel,
                    (a, sums, flags, counts, 140, 16, 50, 32),
                    LaunchConfig.make(4, 8),
                    mode="cooperative" if mode == "sequential" else mode)
    return ({"sums": sums.ptr, "flags": flags.ptr, "counts": counts.ptr},
            {"ragged_rebound_kernel": res})


@kernel(name="float32_start_kernel")
def float32_start_kernel(a, sums, n, start, spread, stride, trips):
    """A strided sum of a float32 tensor from a Python-float start.

    Lane ``t`` of block ``b`` starts at ``start + b * spread + 3 * t`` and
    every thread runs *trips* trips, so in the scalar modes too a thread
    past ``n`` reaches the masked-off form of ``masked_gather``.  That load
    must be typed as the tensor's float32 in every mode, or a thread that
    never loads keeps the Python float and ``acc + 1.0`` rounds apart.  A
    shared-memory tree reduction finishes each block.
    """
    sh = shared_array(block_dim.x, DType.float64, key="sh")
    tid = thread_idx.x
    i = start + block_idx.x * spread + tid * 3
    acc = 0.1
    for _ in range(trips):
        acc = acc + masked_gather(a, i, i < n)
        i = i + stride
    sh[tid] = acc + 1.0
    offset = block_dim.x // 2
    while offset > 0:
        barrier()
        m = tid < offset
        masked_store(sh, tid, masked_gather(sh, tid, m)
                     + masked_gather(sh, tid + offset, m), m)
        offset //= 2
    barrier()
    masked_store(sums, block_idx.x, sh[0], tid == 0)


def _float32_start(ex, mode):
    # n = 14: block 1's lanes start at 8, 11, 14 and 17, so the last two
    # never load.  The sums are float64, which keeps the one ulp a float32
    # store would round away.
    rng = np.random.default_rng(47)
    a = _tensor(rng.normal(size=14), dtype=DType.float32)
    sums = _tensor(np.zeros(2))
    res = ex.launch(float32_start_kernel, (a, sums, 14, 3, 5, 3, 4),
                    LaunchConfig.make(2, 4),
                    mode="cooperative" if mode == "sequential" else mode)
    return {"sums": sums.ptr}, {"float32_start_kernel": res}


#: kernel family -> (driver, the tier ``auto`` must pick per kernel)
CASES = {
    "stencil": (_stencil, {"laplacian_kernel": "lowered"}),
    "babelstream": (_babelstream, {"copy_kernel": "lowered",
                                   "mul_kernel": "lowered",
                                   "add_kernel": "lowered",
                                   "triad_kernel": "lowered",
                                   "dot_kernel": "lowered"}),
    # Dot's accumulator starts at a Python float and folds at float32
    "babelstream-float32": (
        functools.partial(_babelstream, dtype=DType.float32),
        {"copy_kernel": "lowered", "mul_kernel": "lowered",
         "add_kernel": "lowered", "triad_kernel": "lowered",
         "dot_kernel": "lowered"}),
    "minibude": (_fasten, {"fasten_kernel": "lowered"}),
    "hartreefock": (_eri, {"hartree_fock_kernel": "lowered"}),
    "ragged": (_ragged, {"ragged_stride_kernel": "lowered"}),
    "float32-start": (_float32_start, {"float32_start_kernel": "lowered"}),
    # the trip axis does not take the rebound constants: the lowering
    # tier refuses the kernel
    "ragged-rebound": (_ragged_rebound,
                       {"ragged_rebound_kernel": "vectorized"}),
}


def _assert_same_run(run, ref, label):
    outputs, results = run
    ref_out, ref_res = ref
    for name, expected in ref_out.items():
        assert np.any(expected != 0.0), name
        assert outputs[name].tobytes() == expected.tobytes(), (label, name)
    for name, res in results.items():
        assert res.counters.as_dict() == ref_res[name].counters.as_dict(), \
            (label, name)
        assert res.shared_bytes_per_block == \
            ref_res[name].shared_bytes_per_block, (label, name)


@pytest.mark.parametrize("family", sorted(CASES))
def test_modes_agree_bitwise_with_identical_counters(family):
    _check_modes(family)


@pytest.mark.parametrize("family", sorted(CASES))
def test_modes_agree_bitwise_on_bounds_checked_tensors(family, monkeypatch):
    # no tensor is proven in bounds, so every mode checks every access; the
    # lowering memo starts empty so no unchecked entry is reused
    ref = CASES[family][0](KernelExecutor(), "vectorized")
    monkeypatch.setattr(LaunchRegions, "in_bounds",
                        property(lambda self: frozenset()))
    monkeypatch.setattr(lower_mod, "LOWERED_MEMO", Memo("lowered_checked"))
    checked = _check_modes(family)
    # the checks change no output and no counter
    _assert_same_run(checked, ref, "checked")


def _check_modes(family):
    """Run *family* in every mode and check them against ``vectorized``;
    returns the ``vectorized`` run."""
    driver, auto_tiers = CASES[family]
    runs = {mode: driver(KernelExecutor(), mode) for mode in MODES}
    ref = runs["vectorized"]
    for mode in MODES:
        if family == "hartreefock" and mode == "sequential":
            for name, expected in ref[0].items():
                np.testing.assert_allclose(runs[mode][0][name], expected,
                                           rtol=SCALAR_ERF_RTOL, atol=0.0)
            for name, res in runs[mode][1].items():
                assert res.counters.as_dict() == \
                    ref[1][name].counters.as_dict()
        else:
            _assert_same_run(runs[mode], ref, mode)
    for mode in ("auto", "lowered"):
        ran = {name: res.mode for name, res in runs[mode][1].items()}
        assert ran == auto_tiers, mode
    assert {res.mode for res in ref[1].values()} == {"vectorized"}
    return ref


def _dot_launch(n=100_000, tb=256, blocks=8, size=None):
    rng = np.random.default_rng(29)
    a, b = (_tensor(rng.normal(size=size or n)) for _ in range(2))
    sums = _tensor(np.zeros(blocks))
    return (a, b, sums, n, tb), LaunchConfig.make(blocks, tb)


def _dot_large(ex, mode):
    args, launch = _dot_launch()
    res = ex.launch(dot_kernel, args, launch, mode=mode)
    return {"sums": args[2].ptr}, {"dot_kernel": res}


#: one input per kernel beyond the loop-axis budget of the lowering tier
LARGE = {
    "dot": _dot_large,
    "eri": functools.partial(_eri, natoms=16),
    "fasten": functools.partial(_fasten, natlig=26, natpro=938, nposes=256,
                                wgsize=64),
    # the protein loop fits the axis budget, the ligand x protein nest does
    # not: the ligand loop (longer than UNROLL_MAX) runs in chunks
    "fasten-12x32": functools.partial(_fasten, natlig=12, natpro=32,
                                      nposes=128, wgsize=8),
    "fasten-26x256": functools.partial(_fasten, natlig=26, natpro=256,
                                       nposes=128, wgsize=8),
}


@pytest.mark.parametrize("case", sorted(LARGE))
def test_larger_inputs_lower_bitwise(case):
    runs = {mode: LARGE[case](KernelExecutor(), mode)
            for mode in ("auto", "vectorized")}
    _assert_same_run(runs["auto"], runs["vectorized"], case)
    assert {res.mode for res in runs["auto"][1].values()} == {"lowered"}


@pytest.mark.parametrize("chunk_lanes", [None, 2048],
                         ids=["one-chunk", "multi-chunk"])
def test_stencil_multi_block_chunks_agree_bitwise(chunk_lanes, monkeypatch):
    # (64, 1, 1) blocks on a 12^3 grid: 144 blocks per launch, so chunks
    # span many blocks and ty, tz and bx have extent 1; 2048-lane chunks
    # take the transient multi-chunk path instead of the memoised one
    if chunk_lanes is not None:
        monkeypatch.setattr(vector_executor, "VECTOR_CHUNK_LANES",
                            chunk_lanes)
    stencil = functools.partial(_stencil, block=(64, 1, 1))
    runs = {mode: stencil(KernelExecutor(), mode)
            for mode in ("auto", "vectorized", "sequential")}
    for mode in ("auto", "vectorized"):
        _assert_same_run(runs[mode], runs["sequential"], mode)


def test_stencil_tuning_probe_geometry_auto_matches_vectorized():
    # the untuned stencil tuning probe: (512, 1, 1) blocks, L=16
    stencil = functools.partial(_stencil, L=16, block=(512, 1, 1))
    runs = {mode: stencil(KernelExecutor(), mode)
            for mode in ("auto", "vectorized")}
    _assert_same_run(runs["auto"], runs["vectorized"], "auto")


def test_out_of_range_launch_raises_like_the_interpreter():
    # n exceeds the inputs: the grid-stride gathers, which the region
    # analysis cannot prove in bounds, run off the end of `a` and `b`, in
    # the lowered code on the trip axis
    errors = {}
    for mode in ("auto", "vectorized"):
        args, launch = _dot_launch(n=4096, tb=64, blocks=4, size=4000)
        assert lower_launch(dot_kernel, args, launch) is not None
        assert "_trips" in lower_source(dot_kernel, args, launch)
        with pytest.raises(Exception) as info:
            KernelExecutor().launch(dot_kernel, args, launch, mode=mode)
        errors[mode] = (type(info.value), str(info.value))
    assert errors["auto"] == errors["vectorized"]
    assert errors["auto"][0] is LayoutError


@kernel(name="float_index_kernel")
def float_index_kernel(pos, a, out, n):
    """Reads `a` at a float64 position: the interpreter truncates it."""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    out[i] = a[pos[0]]


def test_float_scalar_index_truncates_in_every_mode():
    # the lowering tier would compare the raw 2.7 against the extent and
    # then index with it, so it refuses the body
    runs = {}
    for mode in MODES:
        pos, a = _tensor([2.7]), _tensor(np.arange(8.0) + 1.0)
        out = _tensor(np.zeros(8))
        res = KernelExecutor().launch(float_index_kernel, (pos, a, out, 8),
                                      LaunchConfig.make(1, 8), mode=mode)
        runs[mode] = ({"out": out.ptr}, {"float_index_kernel": res})
        assert res.mode == ("sequential" if mode == "sequential"
                            else "vectorized"), mode
    assert runs["vectorized"][0]["out"].tolist() == [3.0] * 8
    for mode in MODES:
        _assert_same_run(runs[mode], runs["vectorized"], mode)


def test_ragged_grid_stride_lowers_to_trip_axis_and_prefix_slices():
    outputs, _ = _ragged(KernelExecutor(), "auto")
    # the block that runs no trip keeps its -0.0
    assert np.signbit(outputs["sums"][3]) and outputs["sums"][3] == 0.0
    args = (_tensor(np.zeros(140)), _tensor(np.zeros(4)), 140, 16, 50)
    source = lower_source(ragged_stride_kernel, args,
                          LaunchConfig.make(4, 8))
    assert "_trips" in source and "while" not in source
    assert "_sh1[:, 0:4] = (_sh1[:, 0:4] + _sh1[:, 4:8])" in source
