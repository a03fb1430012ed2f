"""Bounded, thread-safe memo for pure host-side computations.

Problem setup (helium systems, Schwarz bounds) and the analytic profiling
counters are pure functions of their inputs and are requested over and over
by sweeps, reports and tuning.  A :class:`Memo` stores their results by
value key so the work is paid once:

* **Bounded.**  Least-recently-used entries are evicted once the memo holds
  more than :data:`MAX_ENTRIES` entries or more than :data:`MAX_BYTES` bytes
  of NumPy array data.  A single value larger than the byte bound is
  returned but not stored.
* **Read-only results.**  A stored ``ndarray``, or every ``ndarray`` field
  of a stored dataclass, is made read-only before the first caller sees
  it, so a hit and a miss return the same kind of object and no caller can
  corrupt the memo.
* **Observable.**  :meth:`Memo.cache_info` reports hits, misses, entries
  and bytes; every lookup also bumps the process metrics counters
  ``memo_hits_total`` / ``memo_misses_total`` under a ``memo=<name>``
  label, and :func:`memo_infos` reports every live memo at once.

The computation runs outside the lock, so two threads missing on the same
key may both compute it; the first result stored wins and both callers get
that one object.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, NamedTuple

import numpy as np

from ..obs import metrics as _obs_metrics

__all__ = ["Memo", "MemoInfo", "MAX_ENTRIES", "MAX_BYTES", "memo_infos"]

#: most entries one memo keeps
MAX_ENTRIES = 256
#: most NumPy array bytes one memo keeps
MAX_BYTES = 64 << 20


#: every live memo, for :func:`memo_infos` (weak: a dropped memo leaves it)
_REGISTRY: "weakref.WeakSet[Memo]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()


class MemoInfo(NamedTuple):
    """Counters and occupancy of one :class:`Memo`."""

    hits: int
    misses: int
    entries: int
    bytes: int


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

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        with _REGISTRY_LOCK:
            _REGISTRY.add(self)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under *key*, computing and storing it on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if entry is not None:
            _obs_metrics.inc("memo_hits_total", memo=self.name)
            return entry[0]
        _obs_metrics.inc("memo_misses_total", memo=self.name)
        value = compute()
        size = _freeze(value)
        if size > MAX_BYTES:
            return value
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:      # another thread stored it first
                return entry[0]
            self._entries[key] = (value, size)
            self._bytes += size
            while (len(self._entries) > MAX_ENTRIES
                   or self._bytes > MAX_BYTES):
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
        return value

    def cache_info(self) -> MemoInfo:
        with self._lock:
            return MemoInfo(self._hits, self._misses, len(self._entries),
                            self._bytes)

    def clear(self) -> None:
        """Drop every entry and zero the hit/miss counts."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0


def memo_infos() -> Dict[str, Dict[str, int]]:
    """:meth:`Memo.cache_info` of every live memo as a JSON-ready dict,
    keyed and sorted by name."""
    with _REGISTRY_LOCK:
        memos = list(_REGISTRY)
    return {memo.name: memo.cache_info()._asdict()
            for memo in sorted(memos, key=lambda memo: memo.name)}
