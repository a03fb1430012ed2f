"""Tests for the bounded, thread-safe memo primitive."""

import dataclasses
import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import memo as memo_module
from repro.core.memo import DiskTier, Memo
from repro.obs import registry, reset_metrics


class TestMemo:
    def test_miss_then_hit_returns_the_stored_object(self):
        memo = Memo("t")
        calls = []
        first = memo.get_or_compute("k", lambda: calls.append(1) or [1, 2])
        second = memo.get_or_compute("k", lambda: calls.append(1) or [3])
        assert second is first and calls == [1]
        info = memo.cache_info()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)

    def test_arrays_are_read_only_on_miss_and_hit(self):
        memo = Memo("t")

        @dataclasses.dataclass
        class Holder:
            arr: np.ndarray
            other: np.ndarray
            label: str = "x"

        for _ in range(2):
            value = memo.get_or_compute(
                "k", lambda: Holder(np.zeros(3), np.arange(4)))
            for arr in (value.arr, value.other):
                with pytest.raises(ValueError):
                    arr[0] = 1
            plain = memo.get_or_compute("a", lambda: np.ones(2))
            with pytest.raises(ValueError):
                plain[0] = 1
        assert memo.cache_info().bytes == 3 * 8 + 4 * 8 + 2 * 8

    def test_evicts_least_recently_used_at_entry_bound(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_ENTRIES", 2)
        memo = Memo("t")
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        memo.get_or_compute("a", lambda: -1)        # refresh a
        memo.get_or_compute("c", lambda: 3)         # evicts b
        assert memo.cache_info().entries == 2
        assert memo.get_or_compute("a", lambda: -1) == 1
        assert memo.get_or_compute("b", lambda: 20) == 20
        info = memo.cache_info()
        assert (info.hits, info.misses) == (2, 4)

    def test_evicts_at_byte_bound_and_skips_oversized_values(self,
                                                              monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_BYTES", 100)
        memo = Memo("t")
        memo.get_or_compute("a", lambda: np.zeros(5))     # 40 bytes
        memo.get_or_compute("b", lambda: np.zeros(5))     # 80 bytes
        memo.get_or_compute("c", lambda: np.zeros(5))     # evicts a
        info = memo.cache_info()
        assert (info.entries, info.bytes) == (2, 80)
        big = memo.get_or_compute("big", lambda: np.zeros(20))
        assert big.shape == (20,) and not big.flags.writeable
        assert memo.cache_info().entries == 2              # not stored
        memo.clear()
        assert memo.cache_info() == (0, 0, 0, 0, 0)

    def test_failed_computation_stores_nothing(self):
        memo = Memo("t")

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            memo.get_or_compute("k", boom)
        assert memo.get_or_compute("k", lambda: 7) == 7
        assert memo.cache_info().entries == 1

    def test_emits_labelled_hit_and_miss_counters(self):
        memo = Memo("labelled-test")
        reg = registry()
        hits = reg.counter("memo_hits_total", memo="labelled-test")
        misses = reg.counter("memo_misses_total", memo="labelled-test")
        memo.get_or_compute(1, lambda: 1)
        memo.get_or_compute(1, lambda: 1)
        memo.get_or_compute(2, lambda: 2)
        assert reg.counter("memo_hits_total", memo="labelled-test") == hits + 1
        assert (reg.counter("memo_misses_total", memo="labelled-test")
                == misses + 2)

    def test_concurrent_lookups_lose_no_counts(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_ENTRIES", 8)
        memo = Memo("t")
        threads, rounds, keys = 8, 300, 12
        wrong = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(offset):
                for i in range(rounds):
                    key = (i + offset) % keys
                    if memo.get_or_compute(key, lambda: key * 10) != key * 10:
                        wrong.append(key)

            pool = [threading.Thread(target=worker, args=(n,))
                    for n in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(switch)
        assert wrong == []
        info = memo.cache_info()
        assert info.hits + info.misses == threads * rounds
        assert info.entries <= 8


class TestSingleFlight:
    def _run(self, targets):
        errors = []

        def guarded(target):
            try:
                target()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        pool = [threading.Thread(target=guarded, args=(t,)) for t in targets]
        for t in pool:
            t.start()
        return pool, errors

    @staticmethod
    def _join(pool):
        for t in pool:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in pool)

    def test_concurrent_misses_compute_once(self):
        memo = Memo("t")
        release = threading.Event()
        calls, results = [], []

        def compute():
            calls.append(1)
            release.wait(timeout=10)
            return object()

        pool, errors = self._run(
            [lambda: results.append(memo.get_or_compute("k", compute))] * 8)
        time.sleep(0.2)            # every thread is now in flight on "k"
        release.set()
        self._join(pool)
        assert errors == [] and calls == [1]
        assert len({id(r) for r in results}) == 1 and len(results) == 8
        info = memo.cache_info()
        assert (info.misses, info.hits, info.entries) == (1, 7, 1)

    def test_raising_computation_releases_waiters(self):
        memo = Memo("t")
        started, release = threading.Event(), threading.Event()
        calls, results = [], []

        def boom():
            calls.append("boom")
            started.set()
            release.wait(timeout=10)
            raise KeyError("x")

        def first():
            with pytest.raises(KeyError):
                memo.get_or_compute("k", boom)

        pool, errors = self._run([first])
        assert started.wait(timeout=10)
        waiters, more = self._run([lambda: results.append(
            memo.get_or_compute("k", lambda: calls.append("ok") or 5))])
        time.sleep(0.1)            # the waiter blocks on the failing flight
        release.set()
        self._join(pool + waiters)
        assert errors == more == []
        assert calls == ["boom", "ok"] and results == [5]
        assert memo.get_or_compute("k", lambda: -1) == 5
        info = memo.cache_info()
        assert (info.misses, info.hits, info.entries) == (2, 1, 1)

    def test_distinct_keys_compute_in_parallel(self):
        memo = Memo("t")
        both_inside = threading.Barrier(2, timeout=10)

        def compute(key):
            both_inside.wait()     # breaks unless both run at once
            return key

        pool, errors = self._run(
            [lambda k=k: memo.get_or_compute(k, lambda: compute(k))
             for k in ("a", "b")])
        self._join(pool)
        assert errors == []
        assert memo.cache_info().misses == 2


class TestDiskTier:
    @staticmethod
    def _tier(path, decode=lambda key, entry: entry["v"]):
        return DiskTier(str(path), 1 << 20, stem=str,
                        encode=lambda value: {"v": value}, decode=decode)

    def test_put_writes_through_and_a_new_memo_reads_it(self, tmp_path):
        Memo("disk-test", disk=self._tier(tmp_path)).put("a", [1, 2])
        assert (tmp_path / "a.json").exists()
        reg = registry()
        disk_hits = reg.counter("memo_disk_hits_total", memo="disk-test")
        fresh = Memo("disk-test", disk=self._tier(tmp_path))
        assert fresh.get("a") == [1, 2]
        assert fresh.get("a") == [1, 2]            # now served from memory
        assert fresh.get("b") is None
        assert fresh.cache_info() == (2, 1, 1, 0, 1)
        assert reg.counter("memo_disk_hits_total",
                           memo="disk-test") == disk_hits + 1

    def test_get_or_compute_consults_disk_before_computing(self, tmp_path):
        Memo("t", disk=self._tier(tmp_path)).put("a", 3)
        fresh = Memo("t", disk=self._tier(tmp_path))
        assert fresh.get_or_compute("a", lambda: -1) == 3
        assert fresh.cache_info().disk_hits == 1

    def test_undecodable_entry_reads_as_a_miss(self, tmp_path):
        Memo("t", disk=self._tier(tmp_path)).put("a", 3)
        stale = Memo("t", disk=self._tier(tmp_path, lambda key, entry: None))
        assert stale.get_or_compute("a", lambda: 4) == 4
        assert stale.cache_info() == (0, 1, 1, 0, 0)


class TestRegistry:
    def test_memo_infos_reports_live_memos_only(self):
        memo = Memo("registry-test")
        memo.get_or_compute("k", lambda: np.zeros(2))
        infos = memo_module.memo_infos()
        assert infos["registry-test"] == {"hits": 0, "misses": 1,
                                          "entries": 1, "bytes": 16,
                                          "disk_hits": 0,
                                          "share": 16 / memo_module.MAX_BYTES}
        assert list(infos) == sorted(infos)
        del memo
        gc.collect()
        assert "registry-test" not in memo_module.memo_infos()

    def test_memo_infos_sums_memos_sharing_a_name(self):
        first, second = Memo("shared-test"), Memo("shared-test")
        first.get_or_compute(1, lambda: 1)
        second.get_or_compute(1, lambda: 1)
        second.get_or_compute(1, lambda: 1)
        assert memo_module.memo_infos()["shared-test"] == {
            "hits": 1, "misses": 2, "entries": 2, "bytes": 0, "disk_hits": 0,
            "share": 0.0}


class TestByteBudget:
    def test_memos_share_one_byte_budget(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_BYTES", 800)
        first, second = Memo("budget-a"), Memo("budget-b")
        for key in range(5):                    # 10 x 80 bytes: the budget
            first.get_or_compute(key, lambda: np.zeros(10))
            second.get_or_compute(key, lambda: np.zeros(10))
        first.get_or_compute(0, lambda: np.ones(10))      # refresh a0
        second.get_or_compute(5, lambda: np.zeros(10))    # evicts b0
        first.get_or_compute(5, lambda: np.zeros(10))     # evicts a1
        infos = memo_module.memo_infos()
        assert infos["budget-a"]["bytes"] + infos["budget-b"]["bytes"] <= 800
        assert sum(info["bytes"] for info in infos.values()) <= 800
        assert infos["budget-a"]["share"] == infos["budget-b"]["share"] == 0.5
        assert [k for k in range(6) if first.get(k) is not None] \
            == [0, 2, 3, 4, 5]
        assert [k for k in range(6) if second.get(k) is not None] \
            == [1, 2, 3, 4, 5]
        assert not first.get(0).any()           # the refreshed entry
        # entries without bytes are never evicted for the budget
        first.get_or_compute("none", lambda: None)
        second.get_or_compute(6, lambda: np.zeros(10))
        assert first.get("none", "gone") is None

    def test_concurrent_stores_keep_the_budget(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_BYTES", 4000)
        memos = [Memo(f"budget-{n}") for n in range(3)]
        threads, rounds = 8, 200
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(offset):
                for i in range(rounds):
                    memo = memos[(i + offset) % len(memos)]
                    memo.get_or_compute((offset, i % 40),
                                        lambda: np.zeros(10 + i % 7))

            pool = [threading.Thread(target=worker, args=(n,))
                    for n in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(switch)
        for memo in memos:     # no lost update to a memo's byte count
            assert memo.cache_info().bytes == sum(
                entry[1] for entry in memo._entries.values())
        assert sum(m.cache_info().bytes for m in memos) <= 4000


class TestPublishedCounters:
    def test_registry_reads_the_memo_counts_and_honours_reset(self):
        memo = Memo("published-test")
        reg = registry()
        reset_metrics()
        memo.get_or_compute(1, lambda: 1)
        memo.get_or_compute(1, lambda: 1)
        assert reg.counter("memo_hits_total", memo="published-test") == 1.0
        assert reg.counter("memo_misses_total", memo="published-test") == 1.0
        reset_metrics()
        assert reg.counter("memo_hits_total", memo="published-test") == 0.0
        memo.get_or_compute(1, lambda: 1)
        memo.clear()                    # zeroes cache_info, not the metric
        assert memo.cache_info().hits == 0
        counters = reg.snapshot()["counters"]
        assert counters['memo_hits_total{memo="published-test"}'] == 1.0
        assert 'memo_misses_total{memo="published-test"}' not in counters
        assert counters["memo_hits_total"] == sum(
            v for k, v in counters.items()
            if k.startswith("memo_hits_total{"))
