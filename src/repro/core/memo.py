"""Bounded, thread-safe memo: the one cache layer of the package.

Problem setup, compiled kernels, analysis verdicts, workload results and
tuning winners are pure functions of their keys and are requested over and
over by sweeps, reports and tuning.  A :class:`Memo` stores them by value
key so the work is paid once:

* **Bounded.**  Least-recently-used entries are evicted once the memo holds
  more than :data:`MAX_ENTRIES` entries or more than :data:`MAX_BYTES` bytes
  of NumPy array data.  A single value larger than the byte bound is
  returned but not stored.
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
  bytes and disk hits; every lookup also bumps the process metrics counters
  ``memo_hits_total`` / ``memo_misses_total`` / ``memo_disk_hits_total``
  under a ``memo=<name>`` label, and :func:`memo_infos` reports every live
  memo at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import weakref
from collections import OrderedDict
from typing import (Any, Callable, Dict, Hashable, Iterator, NamedTuple,
                    Optional)

import numpy as np

from ..obs import metrics as _obs_metrics
from .diskstore import read_json_entry, write_json_entry

__all__ = ["Memo", "MemoInfo", "DiskTier", "MAX_ENTRIES", "MAX_BYTES",
           "memo_infos"]

#: most entries one memo keeps
MAX_ENTRIES = 256
#: most NumPy array bytes one memo keeps
MAX_BYTES = 64 << 20


#: every live memo, for :func:`memo_infos` (weak: a dropped memo leaves it)
_REGISTRY: "weakref.WeakSet[Memo]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()

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

    Returns the bytes made read-only; any other value counts 0 bytes.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = (getattr(value, f.name) for f in dataclasses.fields(value))
        return sum(_freeze(v) for v in fields if isinstance(v, np.ndarray))
    return 0


class Memo:
    """LRU memo bounded by entry count and array bytes (see module docs)."""

    def __init__(self, name: str, disk: Optional[DiskTier] = None) -> None:
        self.name = name
        self.disk = disk
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        #: key -> [lock, callers holding or waiting on it]; guarded by _lock
        self._flights: Dict[Hashable, list] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
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
                _obs_metrics.inc("memo_hits_total", memo=self.name)
                _obs_metrics.inc("memo_disk_hits_total", memo=self.name)
                return value
        with self._lock:
            self._misses += 1
        _obs_metrics.inc("memo_misses_total", memo=self.name)
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
            self._hits += 1
        _obs_metrics.inc("memo_hits_total", memo=self.name)
        return entry[0]

    def _store(self, key: Hashable, value: Any) -> None:
        size = _freeze(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if size > MAX_BYTES:
                return
            self._entries[key] = (value, size)
            self._bytes += size
            while (len(self._entries) > MAX_ENTRIES
                   or self._bytes > MAX_BYTES):
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted

    def cache_info(self) -> MemoInfo:
        with self._lock:
            return MemoInfo(self._hits, self._misses, len(self._entries),
                            self._bytes, self._disk_hits)

    def clear(self) -> None:
        """Drop every memory entry and zero the counters (disk is kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0


def memo_infos() -> Dict[str, Dict[str, int]]:
    """:meth:`Memo.cache_info` of every live memo as a JSON-ready dict,
    keyed and sorted by name; live memos that share a name are summed."""
    with _REGISTRY_LOCK:
        memos = list(_REGISTRY)
    totals: Dict[str, list] = {}
    for memo in memos:
        info = memo.cache_info()
        total = totals.setdefault(memo.name, [0] * len(info))
        for i, count in enumerate(info):
            total[i] += count
    return {name: MemoInfo(*totals[name])._asdict() for name in sorted(totals)}
