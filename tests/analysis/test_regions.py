"""Symbolic access-region analysis: intervals, bounds, races, covers."""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    Diagnostic,
    LintReport,
    Severity,
    analyze_graph,
    bounds_diagnostics,
    concretize_launch,
    covers,
    discharge_proven,
    kernel_regions,
    launch_traffic,
    lint_kernel,
    region_conflict,
)
from repro.analysis.symexpr import Interval
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.errors import LayoutError
from repro.core.intrinsics import (any_lane, compress_lanes, global_idx,
                                   masked_gather, masked_store)
from repro.core.kernel import Kernel, LaunchConfig

_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "region_kernels.py"
_spec = importlib.util.spec_from_file_location("region_kernels", _FIXTURE)
fx = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fx)


def _rules(diags):
    diags = getattr(diags, "diagnostics", diags)
    return sorted(d.rule for d in diags)


def _buffers(n=1024):
    ctx = DeviceContext("h100")
    a = ctx.enqueue_create_buffer(DType.float64, n, label="a")
    c = ctx.enqueue_create_buffer(DType.float64, n, label="c")
    return ctx, a, c


class TestInterval:
    def test_arithmetic(self):
        a, b = Interval(0, 7), Interval(2, 3)
        assert (a + b) == Interval(2, 10)
        assert (a - b) == Interval(-3, 5)
        assert (a * b) == Interval(0, 21)
        assert (-a) == Interval(-7, 0)

    def test_negative_multiplication_hull(self):
        assert Interval(-2, 3) * Interval(-5, 4) == Interval(-15, 12)

    def test_floordiv_by_span_containing_zero_is_unknown(self):
        assert Interval(0, 8).floordiv(Interval(-1, 1)) is None
        assert Interval(0, 8).floordiv(Interval(2, 2)) == Interval(0, 4)

    def test_empty_and_contains(self):
        assert Interval(3, 2).empty
        assert Interval(0, 4).intersect(Interval(5, 9)).empty
        assert Interval(0, 4).contains(Interval(1, 3))
        assert not Interval(0, 4).contains(Interval(1, 5))

    def test_infinite_endpoints_stay_sound(self):
        inf = float("inf")
        assert Interval(0, inf) + Interval(1, 1) == Interval(1, inf)
        # 0 * inf must resolve to 0, not NaN, for guard-free strides
        assert Interval(0, 0) * Interval(0, inf) == Interval(0, 0)


class TestKernelRegions:
    def test_guarded_copy_summary_is_analyzable(self):
        summary = kernel_regions(Kernel(fx.guarded_copy))
        assert summary.analyzable
        kinds = {(a.param, a.kind) for a in summary.accesses}
        assert ("a", "r") in kinds and ("c", "w") in kinds

    def test_summary_is_memoised(self):
        kern = Kernel(fx.guarded_copy)
        assert kernel_regions(kern) is kernel_regions(kern)

    def test_concretization_is_memoised(self):
        kern = Kernel(fx.guarded_copy)
        ctx, a, c = _buffers()
        launch = LaunchConfig.for_elements(1024, 128)
        args = (a.tensor(), c.tensor(), 1024)
        assert concretize_launch(kern, args, launch) \
            is concretize_launch(kern, args, launch)

    def test_guard_clamps_the_tail_launch(self):
        kern = Kernel(fx.guarded_copy)
        ctx, a, c = _buffers(1000)
        launch = LaunchConfig.for_elements(1000, 128)   # 1024 lanes
        lr = concretize_launch(kern, (a.tensor(), c.tensor(), 1000), launch)
        assert lr is not None and not lr.oob
        for region in lr.regions:
            for box in region.reads + region.writes:
                assert box == ((0, 999),)

    def test_augmented_assignment_reads_once(self):
        # ``s += a[i]`` loads each guarded element of ``a`` exactly once
        n = 1000
        kern = Kernel(fx.guarded_accumulate)
        ctx, a, c = _buffers(n)
        lr = concretize_launch(kern, (a.tensor(), c.tensor(), n),
                               LaunchConfig.for_elements(n, 128))
        assert lr.read_bytes == 8 * n
        assert lr.write_bytes == 8 * n

    def test_exact_traffic(self):
        kern = Kernel(fx.guarded_copy)
        ctx, a, c = _buffers(1000)
        launch = LaunchConfig.for_elements(1000, 128)
        traffic = launch_traffic(
            kern, (a.tensor(), c.tensor(), 1000), launch)
        assert traffic == (1000 * 8.0, 1000 * 8.0)


def _copy_via_helper(a, c, n):
    i = global_idx().x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    c[i] = _read(a, i)          # the helper may index ``a`` anywhere


def _read(t, i):
    return t[i + 1]


def _copy_via_method(a, c, n):
    i = global_idx().x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    c[i] = a.load(i + 1)


def _rebound_under_guard(a, c, n):
    i = global_idx().x
    if i < n:
        i = i + 1               # no longer bounded by the guard
        c[i] = a[0]


def _mask_before_rebinding(a, c, n):
    i = global_idx().x
    m = i < n
    i = i + 1                   # ``m`` bounds the old ``i``, not this one
    masked_store(c, i - 1, masked_gather(a, i, m), m)


def _stepped_in_for(a, c, n, m):
    i = global_idx().x
    for _ in range(m):
        i = i + 1               # start + k for some k >= 0, k = 0 included
    if i < n:
        c[i - 1] = a[0]


def _rebound_in_for(a, c, n, m):
    i = global_idx().x
    for _ in range(m):
        i = 1                   # after zero trips ``i`` is still the index
    if i < n:
        c[i - 1] = a[0]


def _break_before_step(a, c, n, m):
    i = global_idx().x
    for _ in range(m):
        if m > 0:
            break               # leaves at k = 0 whatever the trip count
        i = i + 1
    if i < n:
        c[i - 1] = a[0]


def _comprehension_target(a, c, n):
    k = 0
    s = sum([a[k] for k in range(n + 4)])
    c[k] = s


class TestInBounds:
    """``ArgRegion.in_bounds``: the fact that switches bounds checks off."""

    N = 64
    LAUNCH = LaunchConfig.make(1, 64)

    def _in_bounds(self, fn):
        ctx, a, c = _buffers(self.N)
        return concretize_launch(Kernel(fn), (a.tensor(), c.tensor(), self.N),
                                 self.LAUNCH).in_bounds

    def test_guarded_copy_is_proven(self):
        assert self._in_bounds(fx.guarded_copy) == {0, 1}

    def test_tail_launch_is_not_proven(self):
        ctx, a, c = _buffers(self.N)
        lr = concretize_launch(Kernel(fx.oob_copy),
                               (a.tensor(), c.tensor(), self.N),
                               LaunchConfig.make(1, self.N + 1))
        assert lr.in_bounds == frozenset()

    @pytest.mark.parametrize("fn", [_copy_via_helper, _copy_via_method])
    def test_escaping_tensor_is_not_proven(self, fn):
        # ``c`` is only subscripted in bounds; ``a`` leaves the body
        assert self._in_bounds(fn) == {1}

    def test_guard_stops_bounding_a_rebound_name(self):
        assert self._in_bounds(_rebound_under_guard) == {0}

    def test_mask_bounds_the_value_it_compared(self):
        # the gather reads ``a`` one past the extent on the last lane
        assert self._in_bounds(_mask_before_rebinding) == {1}

    def test_comprehension_target_is_not_the_outer_name(self):
        assert self._in_bounds(_comprehension_target) == {1}

    @pytest.mark.parametrize("fn", [_stepped_in_for, _break_before_step,
                                    _rebound_in_for])
    def test_zero_trip_loop_leaves_its_entry_value(self, fn):
        # with m = 0, lane 0 leaves the loop with i = 0 and writes c[-1]
        ctx, a, c = _buffers(self.N)
        args = (a.tensor(), c.tensor(), self.N, 0)
        kern = Kernel(fn)
        assert concretize_launch(kern, args, self.LAUNCH).in_bounds == {0}
        for mode in ("auto", "vectorized"):
            with pytest.raises(LayoutError):
                ctx.enqueue_function(kern, *args, grid_dim=1, block_dim=64,
                                     mode=mode)


class TestKV106:
    def test_tail_launch_fires_exactly_kv106(self):
        kern = Kernel(fx.oob_copy)
        ctx, a, c = _buffers(1000)
        launch = LaunchConfig.for_elements(1000, 128)   # 24 lanes escape
        diags = bounds_diagnostics(
            kern, (a.tensor(), c.tensor(), 1000), launch)
        assert diags and {d.rule for d in diags} == {"KV106"}
        assert all(d.severity == Severity.ERROR for d in diags)
        assert any("[0..1023]" in d.message and "extent is 1000" in d.message
                   for d in diags)

    def test_exact_fit_launch_is_clean(self):
        kern = Kernel(fx.oob_copy)
        ctx, a, c = _buffers()
        launch = LaunchConfig.for_elements(1024, 128)
        assert bounds_diagnostics(
            kern, (a.tensor(), c.tensor(), 1024), launch) == []

    def test_guarded_tail_does_not_fire(self):
        kern = Kernel(fx.guarded_copy)
        ctx, a, c = _buffers(1000)
        launch = LaunchConfig.for_elements(1000, 128)
        assert bounds_diagnostics(
            kern, (a.tensor(), c.tensor(), 1000), launch) == []

    def test_proven_lines_discharge_kv103(self):
        kern = Kernel(fx.oob_copy)
        report = LintReport()
        report.extend(lint_kernel(kern))
        kv103 = [d for d in report.diagnostics if d.rule == "KV103"]
        assert kv103, "oob_copy must fire KV103 syntactically"
        ctx, a, c = _buffers()
        launch = LaunchConfig.for_elements(1024, 128)   # exact fit
        lr = concretize_launch(kern, (a.tensor(), c.tensor(), 1024), launch)
        assert kv103[0].line in lr.proven_lines
        proven = {"oob_copy": set(lr.proven_lines),
                  "!oob_copy": set(lr.unproven_lines)}
        assert discharge_proven(report, proven) == len(kv103)
        assert not [d for d in report.diagnostics if d.rule == "KV103"]

    def test_unproven_launch_blocks_discharge(self):
        report = LintReport()
        report.add(Diagnostic(rule="KV103", severity=Severity.WARNING,
                              subject="k", message="m", line=7))
        assert discharge_proven(report, {"k": {7}, "!k": {7}}) == 0
        assert len(report.diagnostics) == 1


def _tile_graph(lo1, hi1, lo2, hi2, n=1024):
    """Two ``tile_scale`` launches on different streams, upload serialised."""
    tile = Kernel(fx.tile_scale)
    ctx = DeviceContext("h100", record_sites=True)
    s1, s2 = ctx.stream("s1"), ctx.stream("s2")
    with ctx.capture("tiles") as graph:
        buf = ctx.enqueue_create_buffer(DType.float64, n, label="field")
        buf.copy_from_host(np.ones(n))
        ready = ctx.event("uploaded").record(ctx.stream("default"))
        s1.wait(ready)
        s2.wait(ready)
        t = buf.tensor()
        ctx.enqueue_function(tile, t, lo1, hi1,
                             grid_dim=max(1, (hi1 - lo1) // 64),
                             block_dim=64, stream=s1)
        ctx.enqueue_function(tile, t, lo2, hi2,
                             grid_dim=max(1, (hi2 - lo2) // 64),
                             block_dim=64, stream=s2)
    return graph


class TestRegionRaces:
    def test_disjoint_tiles_lint_clean(self):
        """The flagship GR201 suppression: provably-disjoint tiles."""
        graph = _tile_graph(0, 512, 512, 1024)
        assert _rules(analyze_graph(graph)) == []
        # the whole-buffer detector would have flagged exactly this graph
        assert "GR201" in _rules(analyze_graph(graph, regions=False))

    def test_partial_overlap_fires_gr204_with_exact_interval(self):
        graph = _tile_graph(0, 576, 512, 1024)
        diags = analyze_graph(graph)
        assert _rules(diags) == ["GR204"]
        (diag,) = diags
        assert diag.severity == Severity.ERROR
        assert "[512..575]" in diag.message

    def test_identical_tiles_stay_gr201(self):
        graph = _tile_graph(0, 512, 0, 512)
        assert _rules(analyze_graph(graph)) == ["GR201"]

    def test_gr204_carries_enqueue_site(self):
        graph = _tile_graph(0, 576, 512, 1024)
        (diag,) = analyze_graph(graph)
        assert diag.source and diag.source.endswith(".py")
        assert diag.line is not None

    def test_region_conflict_verdicts(self):
        disjoint = _tile_graph(0, 512, 512, 1024)
        k1, k2 = [op for op in disjoint._ops if op.kind == "kernel"]
        (buf,) = k1.buffers
        assert region_conflict(k1, k2, buf) == "disjoint"
        partial = _tile_graph(0, 576, 512, 1024)
        k1, k2 = [op for op in partial._ops if op.kind == "kernel"]
        (buf,) = k1.buffers
        assert region_conflict(k1, k2, buf) == \
            ("partial", ((512, 575),), (1024,))

    @pytest.mark.parametrize("seed", range(6))
    def test_region_check_never_reports_fewer_on_broken_graphs(self, seed):
        """Property: refinement only ever *suppresses proven-disjoint*
        pairs — on graphs whose tiles genuinely overlap it reports at
        least as many errors as the whole-buffer detector."""
        rng = np.random.default_rng(seed)
        lo1 = int(rng.integers(0, 4)) * 64
        hi1 = lo1 + int(rng.integers(2, 8)) * 64
        # lo2 inside [lo1, hi1) forces a genuine overlap
        lo2 = int(rng.integers(lo1 // 64, hi1 // 64)) * 64
        hi2 = lo2 + int(rng.integers(1, 8)) * 64
        n = max(hi1, hi2)
        graph = _tile_graph(lo1, hi1, lo2, hi2, n=n)
        whole = [d for d in analyze_graph(graph, regions=False)
                 if d.severity == Severity.ERROR]
        refined = [d for d in analyze_graph(graph)
                   if d.severity == Severity.ERROR]
        assert len(refined) >= len(whole)
        assert {d.rule for d in refined} <= {"GR201", "GR204"}


class TestCovers:
    def test_guarded_kernel_covers_larger_leader(self):
        kern = Kernel(fx.guarded_copy)
        ctx, a, c = _buffers(512)
        args = (a.tensor(), c.tensor(), 512)
        own = LaunchConfig.make(4, 128)
        leader = LaunchConfig.make(9, 128)
        assert covers(kern, args, own, leader)

    def test_unguarded_kernel_never_covers(self):
        kern = Kernel(fx.oob_copy)
        ctx, a, c = _buffers(512)
        args = (a.tensor(), c.tensor(), 512)
        assert not covers(kern, args,
                          LaunchConfig.make(4, 128), LaunchConfig.make(9, 128))

    def test_smaller_leader_does_not_cover(self):
        """Fewer lanes than the guard admits → regions shrink → no cover."""
        kern = Kernel(fx.guarded_copy)
        ctx, a, c = _buffers(512)
        args = (a.tensor(), c.tensor(), 512)
        assert not covers(kern, args,
                          LaunchConfig.make(4, 128), LaunchConfig.make(2, 128))


class TestDeterministicReports:
    def test_sorted_diagnostics_order(self):
        report = LintReport()
        report.add(Diagnostic(rule="KV103", severity=Severity.WARNING,
                              subject="b", message="w1", line=9))
        report.add(Diagnostic(rule="GR201", severity=Severity.ERROR,
                              subject="z", message="race", line=2))
        report.add(Diagnostic(rule="KV101", severity=Severity.WARNING,
                              subject="a", message="w0", line=1))
        rules = [d.rule for d in report.sorted_diagnostics()]
        assert rules == ["GR201", "KV101", "KV103"]   # severity, then rule

    def test_as_dict_is_stable_under_insertion_order(self):
        d1 = Diagnostic(rule="KV103", severity=Severity.WARNING,
                        subject="s", message="m1", line=3)
        d2 = Diagnostic(rule="GR202", severity=Severity.WARNING,
                        subject="s", message="m2", line=1)
        r1, r2 = LintReport(), LintReport()
        r1.add(d1), r1.add(d2)
        r2.add(d2), r2.add(d1)
        assert r1.as_dict() == r2.as_dict()

    def test_rule_counts_zero_fill_the_catalog(self):
        counts = LintReport().rule_counts()
        assert counts["KV106"] == 0 and counts["GR204"] == 0
        assert set(counts) >= {"KV101", "KV103", "GR201", "GR204", "KV106"}
