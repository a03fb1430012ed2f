"""The experiment driver: the jobs every experiment module shares.

:func:`run` sends a request through the memory-only result cache of the
enclosing :func:`result_scope`, so a point two experiments read runs once
per invocation.  The process default cache, which ``repro sweep`` gives a
disk tier, is never used.  The scope also records every ``verify=True``
result read in it, cache hits included, so a cached failed verdict fails
every experiment that reads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

from ..backends import get_backend
from ..harness.results import ExperimentResult, ResultTable
from ..profiling.counters import CounterSet
from ..profiling.ncu import NcuReport
from ..workloads.base import RunRequest, WorkloadResult
from ..workloads.cache import ResultCache, run_cached

__all__ = ["PLATFORMS", "result_scope", "run", "run_pair", "ncu_table"]

#: the (gpu, vendor-baseline backend) pairs of the paper's evaluation
PLATFORMS = (("h100", "cuda"), ("mi300a", "hip"))

#: (cache, verified results) of the innermost :func:`result_scope`
_SCOPE: ContextVar[Optional[Tuple[ResultCache, List[WorkloadResult]]]] = \
    ContextVar("experiment_scope", default=None)


@contextmanager
def result_scope() -> Iterator[List[WorkloadResult]]:
    """Run the block's :func:`run` calls through one memory-only result
    cache (an enclosing scope's, else a new one); yields the list of the
    verified results they read."""
    outer = _SCOPE.get()
    verified: List[WorkloadResult] = []
    token = _SCOPE.set((outer[0] if outer else ResultCache(), verified))
    try:
        yield verified
    finally:
        _SCOPE.reset(token)


def run(request: RunRequest) -> WorkloadResult:
    """Run *request* through the scope's cache (outside a scope: uncached)."""
    cache, verified = _SCOPE.get() or (ResultCache(), [])
    result = run_cached(request, cache=cache)
    if request.verify:
        verified.append(result)
    return result


def run_pair(request: RunRequest, baseline: str, *,
             fast_math: bool = False) -> Tuple[WorkloadResult, WorkloadResult]:
    """Mojo's result for *request* and the *baseline* backend's result for
    the same configuration (with *fast_math*, never verified)."""
    return run(request.replace(backend="mojo")), run(request.replace(
        backend=baseline, fast_math=fast_math, verify=False))


def ncu_table(result: ExperimentResult, table: ResultTable, title: str,
              gpu: str, runs) -> Dict[str, CounterSet]:
    """Profile each ``(label, backend, model, launch, fields)`` run into a
    row of *table* and an ncu report titled *title*, add both to *result*
    and return the counters by label."""
    report = NcuReport(title=title)
    counters = {}
    for label, backend, model, launch, fields in runs:
        c = counters[label] = report.add_run(
            label, get_backend(backend).time(model, gpu, launch))
        row = {**c.as_dict(), "compute_sm_pct": c.compute_throughput_pct,
               "memory_pct": c.memory_throughput_pct, **fields,
               "backend": backend}
        table.add_row(**{column: row[column] for column in table.columns})
    result.add_table(table)
    result.extra_text.append(report.to_text())
    return counters
