"""Tests for the request-level result cache (a memo with a disk tier)."""

import json

import numpy as np
import pytest

from repro.harness.runner import MeasurementProtocol
from repro.harness.sweep import sweep
from repro.core import memo as memo_module
from repro.workloads import default_result_cache, get_workload, run_cached
from repro.workloads.cache import DEFAULT_CACHE_DIR, ResultCache

FAST = MeasurementProtocol(warmup=0, repeats=3)


def _default_memo():
    return default_result_cache().memo


@pytest.fixture(autouse=True)
def _clean_default_cache():
    _default_memo().clear()
    yield
    _default_memo().clear()


def _stencil_request(**overrides):
    fields = dict(gpu="h100", backend="mojo", params={"L": 48},
                  protocol=FAST, verify=False)
    fields.update(overrides)
    return get_workload("stencil").make_request(**fields)


class TestMemoryCache:
    def test_repeated_identical_requests_hit(self):
        request = _stencil_request()
        first = run_cached(request)
        info = _default_memo().cache_info()
        assert info.hits == 0 and info.misses == 1
        second = run_cached(request)
        info = _default_memo().cache_info()
        assert info.hits == 1 and info.misses == 1
        assert second.metrics == first.metrics
        assert second.request == request

    def test_different_requests_miss(self):
        run_cached(_stencil_request())
        run_cached(_stencil_request(params={"L": 32}))
        run_cached(_stencil_request(executor="sequential"))
        info = _default_memo().cache_info()
        assert info.hits == 0 and info.misses == 3

    def test_cached_result_is_isolated_copy(self):
        request = _stencil_request()
        first = run_cached(request)
        first.metrics["bandwidth_gbs"] = -1.0   # caller-side mutation
        second = run_cached(request)
        assert second.metrics["bandwidth_gbs"] > 0

    def test_clear_resets_counters_and_entries(self):
        run_cached(_stencil_request())
        _default_memo().clear()
        assert _default_memo().cache_info() == (0, 0, 0, 0, 0)
        assert default_result_cache().memo.disk is None

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_ENTRIES", 2)
        cache = ResultCache()
        for L in (32, 48, 64):
            run_cached(_stencil_request(params={"L": L}), cache=cache)
        assert cache.memo.cache_info().entries == 2
        # The oldest entry (L=32) was evicted: running it again misses.
        run_cached(_stencil_request(params={"L": 32}), cache=cache)
        assert cache.memo.cache_info().misses == 4


class TestDiskCache:
    def test_round_trip_across_cache_instances(self, tmp_path):
        disk = str(tmp_path / "cache")
        request = _stencil_request()
        first = run_cached(request, cache=ResultCache(disk_dir=disk))

        fresh = ResultCache(disk_dir=disk)      # simulates a new process
        second = run_cached(request, cache=fresh)
        info = fresh.memo.cache_info()
        assert info.disk_hits == 1 and info.hits == 1
        assert second.metrics == pytest.approx(first.metrics)
        assert second.verification.ran == first.verification.ran
        # Rehydrated results are export-shaped: plain-dict timing, no raw.
        assert second.raw is None
        payload = second.as_dict()
        assert payload["metrics"]["bandwidth_gbs"] == pytest.approx(
            first.metrics["bandwidth_gbs"])

    def test_disk_entries_survive_clear(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(disk_dir=disk)
        request = _stencil_request()
        run_cached(request, cache=cache)
        cache.memo.clear()
        run_cached(request, cache=cache)
        assert cache.memo.cache_info().disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(disk_dir=disk)
        request = _stencil_request()
        run_cached(request, cache=cache)
        path = cache.memo.disk.path(request)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        fresh = ResultCache(disk_dir=disk)
        result = run_cached(request, cache=fresh)
        assert fresh.memo.cache_info().misses == 1
        assert result.metrics["bandwidth_gbs"] > 0

    def test_disk_key_is_stable_and_request_specific(self):
        a = ResultCache.disk_key(_stencil_request())
        b = ResultCache.disk_key(_stencil_request())
        c = ResultCache.disk_key(_stencil_request(params={"L": 32}))
        assert a == b
        assert a != c

    def test_disk_key_changes_across_package_versions(self, monkeypatch):
        """A release boundary must invalidate the on-disk store (cached
        results — including verification verdicts — assume unchanged code)."""
        import repro

        before = ResultCache.disk_key(_stencil_request())
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        after = ResultCache.disk_key(_stencil_request())
        assert before != after


class TestSweepMemo:
    def test_run_workload_memoises_repeated_points(self):
        s = sweep(L=[32, 32, 48])
        results = s.run_workload("stencil", protocol=FAST, verify=False)
        assert [r.request.params["L"] for r in results] == [32, 32, 48]
        info = _default_memo().cache_info()
        assert info.hits == 1 and info.misses == 2
        assert results[0].metrics == results[1].metrics

    def test_repeated_sweep_is_all_hits(self):
        s = sweep(L=[32, 48])
        s.run_workload("stencil", protocol=FAST, verify=False)
        s.run_workload("stencil", protocol=FAST, verify=False)
        info = _default_memo().cache_info()
        assert info.hits == 2 and info.misses == 2

    def test_cache_false_forces_fresh_runs(self):
        s = sweep(L=[32, 32])
        s.run_workload("stencil", protocol=FAST, verify=False, cache=False)
        info = _default_memo().cache_info()
        assert info.hits == 0 and info.misses == 0

    def test_unregistered_workload_instances_still_sweep(self):
        """run_workload must use the resolved instance, not re-resolve by
        name through the registry (which passes instances through)."""
        from repro.workloads import StencilWorkload

        class AdHocStencil(StencilWorkload):
            name = "adhoc-stencil"

        results = sweep(L=[16, 16]).run_workload(
            AdHocStencil(), protocol=FAST, verify=False)
        assert [r.request.workload for r in results] == ["adhoc-stencil"] * 2
        assert _default_memo().cache_info().hits == 1   # memo still applies

    def test_workers_preserve_sweep_order_with_cache(self):
        s = sweep(L=[64, 48, 32, 24], gpu=["h100", "mi300a"])
        sequential = s.run_workload("stencil", protocol=FAST, verify=False)
        _default_memo().clear()
        concurrent = s.run_workload("stencil", protocol=FAST, verify=False,
                                    workers=4)
        assert [(r.request.params["L"], r.request.gpu) for r in concurrent] \
            == [(r.request.params["L"], r.request.gpu) for r in sequential]
        assert [r.primary_value for r in concurrent] \
            == [r.primary_value for r in sequential]


class TestExecutorRequestField:
    def test_executor_field_in_key_and_export(self):
        request = _stencil_request(executor="vectorized")
        assert request.as_dict()["executor"] == "vectorized"
        assert hash(request) != hash(_stencil_request(executor="sequential"))
        assert request.replace(executor="auto") == _stencil_request()

    def test_unknown_executor_mode_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _stencil_request(executor="warp")

    def test_sweep_lifts_executor_key(self):
        s = sweep(L=[32], executor=["vectorized", "sequential"])
        requests = list(s.requests("stencil", protocol=FAST, verify=False))
        assert [r.executor for r in requests] == ["vectorized", "sequential"]

    def test_executor_modes_produce_identical_results(self):
        wl = get_workload("stencil")
        results = {}
        for mode in ("vectorized", "sequential"):
            request = wl.make_request(gpu="h100", params={"L": 20},
                                      protocol=FAST, verify=True,
                                      executor=mode)
            results[mode] = wl.run(request)
        assert results["vectorized"].verification.passed
        assert results["sequential"].verification.passed
        assert results["vectorized"].metrics["bandwidth_gbs"] == \
            results["sequential"].metrics["bandwidth_gbs"]
