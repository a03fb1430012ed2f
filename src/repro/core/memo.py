"""Bounded, thread-safe memo: the one cache layer of the package.

Problem setup, compiled kernels, analysis verdicts, workload results and
tuning winners are pure functions of their keys and are requested over and
over by sweeps, reports and tuning.  A :class:`Memo` stores them by value
key so the work is paid once:

* **Bounded.**  A memo evicts its least-recently-used entry once it holds
  more than :data:`MAX_ENTRIES` entries.  Bytes of NumPy array data (or of
  a value's ``nbytes``) have one budget for the whole process: once all
  live memos together hold more than :data:`MAX_BYTES`, the
  least-recently-used entries holding bytes are evicted, whichever memo
  holds them.  A single value larger than the budget is returned but not
  stored.
* **Read-only results.**  A stored ``ndarray``, or every ``ndarray`` field
  of a stored dataclass, is made read-only before the first caller sees
  it, so a hit and a miss return the same kind of object and no caller can
  corrupt the memo.
* **Single-flight.**  Concurrent misses on one key run the computation
  once: the other callers wait for it and count as hits.  Distinct keys
  still compute in parallel.  A computation that raises stores nothing, so
  the next caller computes again.
* **Optional disk tier.**  A :class:`DiskTier` puts a checksummed JSON
  store (:mod:`repro.core.diskstore`) behind the memory tier: a memory miss
  reads the disk, and :meth:`Memo.put` writes through.  Entries survive the
  process; a corrupt one is quarantined and reads as a miss.
* **Observable.**  :meth:`Memo.cache_info` reports hits, misses, entries,
  bytes and disk hits, and :func:`memo_infos` reports every live memo at
  once with its share of the byte budget.  A lookup only counts on its
  memo; the process metrics registry reads the counts from the live memos
  when asked, as the ``memo_hits_total`` / ``memo_misses_total`` /
  ``memo_disk_hits_total`` series under a ``memo=<name>`` label.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import threading
import weakref
from collections import OrderedDict
from typing import (Any, Callable, Dict, Hashable, Iterator, List,
                    NamedTuple, Optional, Tuple)

import numpy as np

from ..obs import metrics as _obs_metrics
from .diskstore import read_json_entry, write_json_entry

__all__ = ["Memo", "MemoInfo", "DiskTier", "MAX_ENTRIES", "MAX_BYTES",
           "memo_infos"]

#: most entries one memo keeps
MAX_ENTRIES = 256
#: most NumPy array bytes all live memos keep together
MAX_BYTES = 64 << 20


#: every live memo, for :func:`memo_infos` (weak: a dropped memo leaves it)
_REGISTRY: "weakref.WeakSet[Memo]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()
#: serialises evictions for the byte budget; taken before a memo's lock,
#: never while one is held
_BUDGET_LOCK = threading.Lock()
#: last-use stamps, process-wide: each store or hit takes the next one
_CLOCK = itertools.count()
#: the metrics counters a memo's (hits, misses, disk hits) publish as
_COUNTERS = ("memo_hits_total", "memo_misses_total", "memo_disk_hits_total")

#: marks a lookup that found nothing (``None`` is a storable value)
_MISSING = object()


class MemoInfo(NamedTuple):
    """Counters and occupancy of one :class:`Memo`."""

    hits: int
    misses: int
    entries: int
    bytes: int
    disk_hits: int


@dataclasses.dataclass(frozen=True)
class DiskTier:
    """A directory of checksummed JSON entries behind a memo.

    Entry ``key`` lives at ``<directory>/<stem(key)>.json`` and holds
    ``encode(value)``.  ``decode(key, payload)`` rebuilds the value, or
    returns None for a stale or foreign entry, which reads as a miss.  After
    each write the directory is pruned oldest-first to *max_bytes*.
    """

    directory: str
    max_bytes: int
    stem: Callable[[Hashable], str]
    encode: Callable[[Any], dict]
    decode: Callable[[Hashable, dict], Any]

    def path(self, key: Hashable) -> str:
        return os.path.join(self.directory, f"{self.stem(key)}.json")

    def read(self, key: Hashable) -> Any:
        payload = read_json_entry(self.path(key))
        return None if payload is None else self.decode(key, payload)

    def write(self, key: Hashable, value: Any) -> None:
        write_json_entry(self.path(key), self.encode(value), self.max_bytes)


def _freeze(value: Any) -> int:
    """Make *value* (an array) or its array fields (a dataclass) read-only.

    Returns the bytes made read-only.  Any other value counts its
    ``nbytes`` attribute (a captured device graph's buffers, which replays
    keep writing) or 0 bytes, and is left as it is.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = (getattr(value, f.name) for f in dataclasses.fields(value))
        return sum(_freeze(v) for v in fields if isinstance(v, np.ndarray))
    return int(getattr(value, "nbytes", 0))


class Memo:
    """LRU memo bounded by entry count and array bytes (see module docs)."""

    def __init__(self, name: str, disk: Optional[DiskTier] = None) -> None:
        self.name = name
        self.disk = disk
        self._lock = threading.Lock()
        #: key -> [value, bytes, last-use stamp], least recently used first
        self._entries: "OrderedDict[Hashable, list]" = OrderedDict()
        #: key -> [lock, callers holding or waiting on it]; guarded by _lock
        self._flights: Dict[Hashable, list] = {}
        self._bytes = 0
        #: lookups since creation; cache_info() counts from the last clear()
        #: and the metrics registry from its last reset()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._cleared = (0, 0, 0)
        self._published = (0, 0, 0)
        with _REGISTRY_LOCK:
            _REGISTRY.add(self)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under *key*, computing and storing it on a miss."""
        value = self._memory_hit(key)
        if value is not _MISSING:
            return value
        with self.single_flight(key):
            value = self.get(key, _MISSING)
            if value is _MISSING:
                value = compute()
                self.put(key, value)
        return value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under *key* (memory, then disk), or *default*.

        Counts one hit or one miss; a disk hit also counts a disk hit and
        is kept in memory.
        """
        value = self._memory_hit(key)
        if value is not _MISSING:
            return value
        if self.disk is not None:
            value = self.disk.read(key)
            if value is not None:
                self._store(key, value)
                with self._lock:
                    self._hits += 1
                    self._disk_hits += 1
                return value
        with self._lock:
            self._misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* under *key*, writing through to the disk tier."""
        self._store(key, value)
        if self.disk is not None:
            self.disk.write(key, value)

    @contextlib.contextmanager
    def single_flight(self, key: Hashable) -> Iterator[None]:
        """Hold *key*'s flight lock: one caller at a time per key.

        A caller that looks up, computes and stores inside this block makes
        concurrent callers of the same key wait and then find the stored
        value.  Re-entrant, so a computation may look up its own key.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = [threading.RLock(), 0]
            flight[1] += 1
        try:
            with flight[0]:
                yield
        finally:
            with self._lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[key]

    def _memory_hit(self, key: Hashable) -> Any:
        """The value in memory under *key*, counted as a hit, or _MISSING."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return _MISSING
            self._entries.move_to_end(key)
            entry[2] = next(_CLOCK)
            self._hits += 1
        return entry[0]

    def _store(self, key: Hashable, value: Any) -> None:
        size = _freeze(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if size > MAX_BYTES:
                return
            self._entries[key] = [value, size, next(_CLOCK)]
            self._bytes += size
            while len(self._entries) > MAX_ENTRIES:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted[1]
        if size:
            _enforce_budget()

    def _oldest_sized(self) -> Optional[Tuple[int, Hashable]]:
        """``(stamp, key)`` of the least recently used entry holding bytes."""
        with self._lock:
            for key, entry in self._entries.items():
                if entry[1]:
                    return entry[2], key
        return None

    def _evict(self, key: Hashable, stamp: int) -> None:
        """Drop *key*, unless it was used again since it carried *stamp*."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[2] == stamp:
                del self._entries[key]
                self._bytes -= entry[1]

    def _counts(self) -> Tuple[int, int, int]:
        return self._hits, self._misses, self._disk_hits

    def cache_info(self) -> MemoInfo:
        with self._lock:
            hits, misses, disk_hits = (
                now - then for now, then in zip(self._counts(), self._cleared))
            return MemoInfo(hits, misses, len(self._entries), self._bytes,
                            disk_hits)

    def clear(self) -> None:
        """Drop every memory entry and zero the counters (disk is kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._cleared = self._counts()


def _live_memos() -> List[Memo]:
    with _REGISTRY_LOCK:
        return list(_REGISTRY)


def _enforce_budget() -> None:
    """Evict least-recently-used entries holding bytes, from any live memo,
    until all live memos together hold at most :data:`MAX_BYTES`."""
    with _BUDGET_LOCK:
        memos = _live_memos()
        while sum(memo._bytes for memo in memos) > MAX_BYTES:
            victim = None
            for memo in memos:
                found = memo._oldest_sized()
                if found is not None and (victim is None
                                          or found[0] < victim[0]):
                    victim = (found[0], found[1], memo)
            if victim is None:
                return
            stamp, key, memo = victim
            memo._evict(key, stamp)


def memo_infos() -> Dict[str, Dict[str, float]]:
    """:meth:`Memo.cache_info` of every live memo as a JSON-ready dict,
    keyed and sorted by name; live memos that share a name are summed.
    ``share`` is the fraction of :data:`MAX_BYTES` the memos hold."""
    totals: Dict[str, list] = {}
    for memo in _live_memos():
        info = memo.cache_info()
        total = totals.setdefault(memo.name, [0] * len(info))
        for i, count in enumerate(info):
            total[i] += count
    infos = {}
    for name in sorted(totals):
        info = MemoInfo(*totals[name])._asdict()
        info["share"] = info["bytes"] / MAX_BYTES
        infos[name] = info
    return infos


def _published_counts() -> List[_obs_metrics.Series]:
    """``(counter, labels, count)`` of every live memo's lookups since the
    last metrics reset, for the metrics registry."""
    series = []
    for memo in _live_memos():
        with memo._lock:
            counts = zip(memo._counts(), memo._published)
        for name, (now, then) in zip(_COUNTERS, counts):
            if now != then:
                series.append((name, {"memo": memo.name}, float(now - then)))
    return series


def _restart_published() -> None:
    for memo in _live_memos():
        with memo._lock:
            memo._published = memo._counts()


_obs_metrics.registry().attach(_published_counts, _restart_published)
