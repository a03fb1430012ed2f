"""Request-level result cache for the unified Workload API.

Every workload run is a pure function of its frozen, hashable
:class:`~repro.workloads.base.RunRequest` (the jitter samples are seeded, the
timing model is deterministic), so repeated sweep points and repeated
``bench`` invocations can be answered from a keyed memo instead of re-running
verification and the analytic pipeline.

A :class:`ResultCache` owns one :class:`~repro.core.memo.Memo` named
``result``, keyed by the ``RunRequest`` itself.  With a *disk_dir* the memo
gets a disk tier under ``<disk_dir>/results/``, keyed by a digest of the
request's canonical JSON, which survives process boundaries and makes
repeated CLI ``bench`` invocations near-free.  Disk hits are rehydrated into
a :class:`WorkloadResult` whose ``timing`` entries are the plain exported
dicts (documented as export-shaped for cached results).

What this module adds to the memo is what only it knows: the request
digest, the result codec, the caller-isolating clone, and the rule that
tuned requests are never memoised (:func:`run_cached`).  Statistics come
from :func:`repro.core.memo.memo_infos` or ``cache.memo.cache_info()``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from typing import Dict, Optional

from ..core.memo import DiskTier, Memo
from .base import RunRequest, Verification, WorkloadResult

__all__ = ["ResultCache", "run_cached", "default_result_cache",
           "DEFAULT_CACHE_DIR", "CACHE_DISK_BUDGET"]

#: default on-disk store location (created lazily, only when disk caching
#: is enabled)
DEFAULT_CACHE_DIR = ".repro_cache"

#: byte budget for the on-disk store; oldest results beyond it are evicted
#: (see :func:`repro.core.diskstore.prune_dir_to_budget`)
CACHE_DISK_BUDGET = 64 * 1024 * 1024

#: schema tag stored with every disk entry; bump to invalidate old stores
_DISK_SCHEMA = "repro.result-cache/v1"


class ResultCache:
    """Keyed memo of :class:`WorkloadResult` by :class:`RunRequest`.

    Pass a *disk_dir* to give the memo its JSON disk tier (entries are
    written through on :meth:`put` and read on memory misses).
    """

    def __init__(self, disk_dir: Optional[str] = None):
        self.disk_dir = disk_dir
        disk = None
        if disk_dir is not None:
            disk = DiskTier(os.path.join(disk_dir, "results"),
                            CACHE_DISK_BUDGET, stem=_disk_stem,
                            encode=_encode, decode=_decode)
        self.memo = Memo("result", disk=disk)

    @staticmethod
    def disk_key(request: RunRequest) -> str:
        """Stable digest of the request's canonical JSON form.

        The package version is folded into the digest so a release boundary
        invalidates the store.  Within one version the entries assume the
        workload code is unchanged — when iterating on kernel or model code
        locally, run with ``--no-cache`` / ``cache=False`` or delete
        ``.repro_cache/``, otherwise a stale result (including its cached
        verification verdict) is served.
        """
        from .. import __version__

        payload = json.dumps(request.as_dict(), sort_keys=True, default=str)
        keyed = f"{__version__}|{payload}"
        return hashlib.sha256(keyed.encode("utf-8")).hexdigest()[:24]

    def get(self, request: RunRequest) -> Optional[WorkloadResult]:
        """Cached result for *request*, or None.  Counts a hit or a miss."""
        result = self.memo.get(request)
        return None if result is None else _clone(result)

    def put(self, request: RunRequest, result: WorkloadResult) -> None:
        """Store *result* under *request* (write-through to disk if enabled).

        A caller-isolated clone is stored, so mutating the result object
        after ``put`` cannot poison the cache.
        """
        self.memo.put(request, _clone(result))


def _disk_stem(request: RunRequest) -> str:
    return f"{request.workload}-{ResultCache.disk_key(request)}"


def _encode(result: WorkloadResult) -> dict:
    return {"schema": _DISK_SCHEMA, "result": result.as_dict()}


def _decode(request: RunRequest, payload: dict) -> Optional[WorkloadResult]:
    if payload.get("schema") != _DISK_SCHEMA:
        return None
    return _result_from_export(request, payload["result"])


def _clone(result: WorkloadResult) -> WorkloadResult:
    """Caller-isolated view of a cached result.

    Top-level containers (metrics, timing, samples, provenance) are fresh
    dicts/lists so caller-side mutation cannot poison the cache; the request,
    verification and timing breakdown objects are shared (all frozen).
    """
    out = copy.copy(result)
    out.metrics = dict(result.metrics)
    out.timing = dict(result.timing)
    out.samples = {k: list(v) for k, v in result.samples.items()}
    out.provenance = dict(result.provenance)
    return out


def _result_from_export(request: RunRequest, payload: Dict) -> WorkloadResult:
    """Rehydrate a :class:`WorkloadResult` from its ``as_dict()`` export.

    ``timing`` values stay as the exported dicts — the export schema is the
    contract for cached results.
    """
    v = payload.get("verification", {})
    return WorkloadResult(
        request=request,
        metrics=dict(payload.get("metrics", {})),
        primary_metric=payload.get("primary_metric", ""),
        verification=Verification(
            ran=bool(v.get("ran", False)),
            passed=bool(v.get("passed", False)),
            max_rel_error=v.get("max_rel_error"),
            detail=v.get("detail", ""),
        ),
        timing=dict(payload.get("timing", {})),
        samples={k: list(s) for k, s in payload.get("samples", {}).items()},
        provenance=dict(payload.get("provenance", {})),
    )


_default_cache = ResultCache()


def default_result_cache() -> ResultCache:
    """The process-wide default result cache used by :func:`run_cached`."""
    return _default_cache


def run_cached(request: RunRequest, *,
               cache: Optional[ResultCache] = None,
               workload=None) -> WorkloadResult:
    """Run *request* through its workload, memoised by request.

    Uses the module default cache unless an explicit :class:`ResultCache`
    is given.  *workload* may supply an already-resolved
    :class:`~repro.workloads.base.Workload` instance (required when it is
    not in the registry — e.g. an ad-hoc subclass driven through a sweep);
    otherwise the request's workload name is resolved through the registry.

    Concurrent callers holding the *same* request coalesce into one run
    (single-flight): exactly one computes and stores, the rest read the
    stored result — so the hit/miss accounting is identical whether
    duplicates arrive sequentially (``Sweep.run_workload``) or on a thread
    pool (``workers=N``).

    Requests with ``tune != "off"`` are **never memoised**: their outcome
    depends on the mutable tuning database, and serving a result cached
    before a better winner was found would silently pin the old launch.
    """
    from .registry import get_workload

    target = cache if cache is not None else _default_cache
    wl = workload if workload is not None else get_workload(request.workload)
    if request.tune != "off":
        return wl.run(request)
    with target.memo.single_flight(request):
        result = target.get(request)
        if result is None:
            result = wl.run(request)
            target.put(request, result)
    return result
