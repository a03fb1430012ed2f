"""Tests for the bounded, thread-safe memo primitive."""

import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest

from repro.core import memo as memo_module
from repro.core.memo import Memo
from repro.obs import registry


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
        assert memo.cache_info() == (0, 0, 0, 0)

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


class TestRegistry:
    def test_memo_infos_reports_live_memos_only(self):
        memo = Memo("registry-test")
        memo.get_or_compute("k", lambda: np.zeros(2))
        infos = memo_module.memo_infos()
        assert infos["registry-test"] == {"hits": 0, "misses": 1,
                                          "entries": 1, "bytes": 16}
        assert list(infos) == sorted(infos)
        del memo
        gc.collect()
        assert "registry-test" not in memo_module.memo_infos()
