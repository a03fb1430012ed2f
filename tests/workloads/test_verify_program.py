"""Verified runs replay one captured device program per program key.

Checks that the replayed program is indistinguishable from enqueueing it
eagerly: the same modelled pipeline, the same fault sites in the same
order, fresh downloads on every hit, no residue in reused buffers, safe
under threaded sweeps, and bounded memory over many replays.
"""

from __future__ import annotations

import mmap

import pytest

from repro.core.device import DeviceContext, DeviceGraph
from repro.core.errors import DeviceError
from repro.core.memo import memo_infos
from repro.harness.sweep import Sweep
from repro.harness.runner import MeasurementProtocol
from repro.kernels.babelstream.runner import (
    VERIFY_DOT_BLOCKS,
    VERIFY_ITERATIONS,
    VERIFY_N,
    VERIFY_TB_SIZE,
    enqueue_babelstream,
    run_babelstream_functional,
)
from repro.kernels.hartreefock.basis import make_helium_system
from repro.kernels.hartreefock.runner import (
    VERIFY_BLOCK_SIZE,
    compute_schwarz,
    enqueue_hartreefock,
    run_hartreefock_functional,
)
from repro.kernels.minibude.deck import BM1_NTYPES, make_deck
from repro.kernels.minibude.runner import enqueue_fasten, run_fasten_functional
from repro.kernels.program import PROGRAM_MEMO, replay_program
from repro.kernels.stencil.problem import StencilProblem
from repro.kernels.stencil.runner import (
    VERIFY_BLOCK_SHAPE,
    enqueue_stencil,
    verify_stencil_kernel,
)
from repro.resilience import FaultPlan, FaultRule, install_fault_plan
from repro.resilience.faults import FaultInjector
from repro.workloads import get_workload

FAST = MeasurementProtocol(warmup=0, repeats=1)

#: small verified request parameters per workload
PARAMS = {
    "stencil": {"L": 18},
    "babelstream": {"n": 4096},
    "minibude": {"nposes": 256, "verify_poses": 64},
    "hartreefock": {"natoms": 8, "verify_natoms": 4},
}


def _deck(seed=2025):
    return make_deck(natlig=8, natpro=32, ntypes=BM1_NTYPES, nposes=64,
                     seed=seed, name="verify")


#: each workload's verify program, enqueued on *ctx*
ENQUEUE = {
    "stencil": lambda ctx, streams: enqueue_stencil(
        ctx, StencilProblem(18, "float64"), VERIFY_BLOCK_SHAPE,
        streams=streams),
    "babelstream": lambda ctx, streams: enqueue_babelstream(
        ctx, n=VERIFY_N, precision="float64", tb_size=VERIFY_TB_SIZE,
        streams=streams, iterations=VERIFY_ITERATIONS,
        dot_blocks=VERIFY_DOT_BLOCKS, downloads=("a", "b", "c")),
    "minibude": lambda ctx, streams: enqueue_fasten(
        ctx, _deck(), ppwi=1, wgsize=8, streams=streams),
    "hartreefock": lambda ctx, streams: enqueue_hartreefock(
        ctx, make_helium_system(4, 3, spacing=2.5),
        compute_schwarz(make_helium_system(4, 3, spacing=2.5)),
        block_size=VERIFY_BLOCK_SIZE, streams=streams),
}

#: each workload's eager verifier for the ``PARAMS`` request
EAGER = {
    "stencil": lambda ctx, ex, s: verify_stencil_kernel(
        ctx, 18, executor=ex, streams=s),
    "babelstream": lambda ctx, ex, s: run_babelstream_functional(
        ctx, executor=ex, streams=s),
    "minibude": lambda ctx, ex, s: run_fasten_functional(
        ctx, _deck(), ppwi=1, wgsize=8, executor=ex, streams=s),
    "hartreefock": lambda ctx, ex, s: run_hartreefock_functional(
        ctx, 4, 3, executor=ex, streams=s),
}


def _request(name, **fields):
    wl = get_workload(name)
    return wl, wl.make_request(params=PARAMS[name], protocol=FAST, **fields)


class _SiteRecorder(FaultInjector):
    """An injector that fires nothing and records every site it reaches."""

    def __init__(self):
        super().__init__(FaultPlan())
        self.sites = []

    def decide(self, site, key="", kind="error"):
        self.sites.append((site, key))
        return super().decide(site, key, kind)


@pytest.mark.parametrize("streams", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(ENQUEUE))
def test_graph_pipeline_equals_eager_breakdown(name, streams):
    eager = DeviceContext("h100")
    ENQUEUE[name](eager, streams)
    eager.synchronize()
    ctx = DeviceContext("h100")
    with ctx.capture() as graph:
        ENQUEUE[name](ctx, streams)
    expected = eager.pipeline_breakdown().as_dict()
    actual = graph.pipeline.as_dict()
    assert list(actual["lanes"]) == list(expected["lanes"])
    assert actual["operations"] == expected["operations"]
    for key in ("elapsed_ms", "serial_ms", "overlap_saved_ms"):
        assert actual[key] == pytest.approx(expected[key], rel=1e-12)
    for lane, busy in expected["lanes"].items():
        assert actual["lanes"][lane] == pytest.approx(busy, rel=1e-12)


def test_babelstream_verify_program_is_capturable():
    ctx = DeviceContext("h100")
    with ctx.capture() as graph:
        ENQUEUE["babelstream"](ctx, 1)
    out = graph.replay()
    assert sorted(out) == ["a", "b", "c"] + [
        f"dot_sums{i}" for i in range(VERIFY_ITERATIONS)]


@pytest.mark.parametrize("executor", ("auto", "vectorized"))
@pytest.mark.parametrize("streams", (1, 2))
@pytest.mark.parametrize("name", sorted(EAGER))
def test_replay_reaches_the_eager_fault_sites_in_order(name, streams,
                                                       executor):
    wl, request = _request(name, streams=streams, executor=executor)
    assert wl.run(request).verification.passed      # capture outside

    eager = _SiteRecorder()
    with install_fault_plan(eager):
        EAGER[name](DeviceContext("h100"), executor, streams)
    replayed = _SiteRecorder()
    with install_fault_plan(replayed):
        assert wl.run(request).verification.passed
    assert replayed.sites == eager.sites
    # BabelStream fills its buffers on the device: no H2D sites
    assert {site for site, _ in eager.sites} >= {
        "launch", "transfer.d2h", "corrupt.d2h"}


def test_graph_owned_memory_lives_in_its_own_mapping():
    # Long-lived graph memory outside the allocator's heap: replays then
    # do not make their transient arrays fault pages in again.
    ctx = DeviceContext("h100")
    with ctx.capture() as graph:
        ENQUEUE["stencil"](ctx, 1)
    def mapped(array):
        return isinstance(getattr(array.base, "obj", None), mmap.mmap)

    assert all(mapped(buf.array) for buf in graph._buffers)
    assert all(mapped(src) for _, src in graph._h2d_specs.values())
    eager = DeviceContext("h100").enqueue_create_buffer("float64", 8)
    assert not mapped(eager.array)


def test_keyless_program_is_replayed_once_and_not_stored():
    entries = PROGRAM_MEMO.cache_info().entries
    for _ in range(2):
        out, pipeline = replay_program(
            None, DeviceContext("h100").spec,
            lambda ctx: ENQUEUE["stencil"](ctx, 1))
        assert out["f"].shape == (18 ** 3,) and pipeline.operations == 3
    assert PROGRAM_MEMO.cache_info().entries == entries


def test_corrupt_download_on_a_program_hit_fails_verification():
    wl, request = _request("stencil")
    wl.run(request)                                 # the program is stored
    hits = PROGRAM_MEMO.cache_info().hits
    plan = FaultPlan(rules=(FaultRule(site="corrupt.d2h", indices=(1,)),))
    with install_fault_plan(plan):
        first = wl.run(request)
        second = wl.run(request)
    assert PROGRAM_MEMO.cache_info().hits == hits + 2
    assert first.verification.passed
    assert second.verification.ran and not second.verification.passed


@pytest.mark.parametrize("name,index", [("minibude", 4), ("hartreefock", 2)])
def test_failed_upload_mid_replay_leaves_no_residue(name, index):
    wl, other = _request(name)
    if name == "minibude":
        request = other.with_params(seed=7)         # same program, new deck
    else:
        request = other
    clean = wl.run(request)
    wl.run(other)                                   # buffers hold `other`
    plan = FaultPlan(rules=(FaultRule(site="transfer.h2d", indices=(index,)),))
    with install_fault_plan(plan) as injector:
        with pytest.raises(DeviceError):
            wl.run(request)
    assert injector.stats()["fired"] == {"transfer.h2d": 1}
    recovered = wl.run(request)                     # no plan: a plain run
    assert recovered.verification.passed
    assert (recovered.verification.max_rel_error
            == clean.verification.max_rel_error)
    assert (recovered.timing["verify_pipeline"].as_dict()
            == clean.timing["verify_pipeline"].as_dict())
    assert recovered.metrics == clean.metrics


def test_threaded_sweep_over_one_program_matches_serial():
    # 16 decks of one shape: one program, each request binding its own deck
    sweep = Sweep({"seed": list(range(16)), "nposes": [256],
                   "verify_poses": [64]})
    serial = sweep.run_workload("minibude", cache=False, protocol=FAST)
    threaded = sweep.run_workload("minibude", cache=False, workers=4,
                                  protocol=FAST)
    assert all(r.verification.passed for r in threaded)
    assert len({r.verification.max_rel_error for r in serial}) > 1
    for a, b in zip(serial, threaded):
        assert a.verification.max_rel_error == b.verification.max_rel_error
        assert (a.timing["verify_pipeline"].as_dict()
                == b.timing["verify_pipeline"].as_dict())
        assert a.metrics == b.metrics


def test_replays_keep_memory_bounded(monkeypatch):
    PROGRAM_MEMO.clear()
    wl = get_workload("stencil")
    request = wl.make_request(params={"L": 3}, protocol=FAST)
    graphs = []
    replay = DeviceGraph.replay

    def spy(self, **bindings):
        graphs.append(self)
        return replay(self, **bindings)

    monkeypatch.setattr(DeviceGraph, "replay", spy)
    wl.run(request)
    monkeypatch.setattr(DeviceGraph, "replay", replay)
    ctx = graphs[0].ctx
    length = len(ctx.timeline)
    for _ in range(2000):
        wl.run(request)
    assert len(ctx.timeline) == length
    info = memo_infos()["program"]
    assert info["entries"] == 1
    # the memo's byte bound sees the program's buffers and snapshots
    assert info["bytes"] == graphs[0].nbytes > 0
