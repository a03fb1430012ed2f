"""Unified Workload API: one registry and request/result schema for the four
science kernels of the paper.

>>> from repro.workloads import get_workload, list_workloads
>>> list_workloads()
('babelstream', 'hartreefock', 'minibude', 'stencil')
>>> wl = get_workload("stencil")
>>> result = wl.run(wl.make_request(gpu="h100", backend="mojo",
...                                 params={"L": 128}, verify=False))
>>> result.primary_metric
'bandwidth_gbs'

Every workload accepts the same frozen :class:`RunRequest` and returns the
same :class:`WorkloadResult` shape, so sweeps, the CLI ``bench`` command and
the figure experiments drive all kernels uniformly.

The registry names the four built-ins from the start but imports a
workload's module (and its kernels) only when it is first looked up, so
``get_workload("stencil")`` never imports miniBUDE, BabelStream or
Hartree–Fock.  The workload classes below resolve on first access
(:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports
from .base import (
    DEFAULT_PROTOCOL,
    EXECUTOR_MODES,
    MAX_STREAMS,
    TUNE_MODES,
    ParamSpec,
    RunRequest,
    Verification,
    Workload,
    WorkloadResult,
)
from .cache import ResultCache, default_result_cache, run_cached
from .registry import (
    get_workload,
    list_workloads,
    register_workload,
    unregister_workload,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".babelstream": ("BabelStreamWorkload",),
    ".hartreefock": ("HartreeFockWorkload",),
    ".minibude": ("MiniBudeWorkload",),
    ".stencil": ("StencilWorkload",),
})

__all__ = [
    "ParamSpec", "RunRequest", "Verification", "Workload", "WorkloadResult",
    "DEFAULT_PROTOCOL", "EXECUTOR_MODES", "MAX_STREAMS", "TUNE_MODES",
    "register_workload", "unregister_workload", "get_workload",
    "list_workloads",
    "StencilWorkload", "BabelStreamWorkload", "MiniBudeWorkload",
    "HartreeFockWorkload",
    "run_workload",
    "ResultCache", "run_cached", "default_result_cache",
]


def run_workload(request: RunRequest) -> WorkloadResult:
    """Dispatch a :class:`RunRequest` to its registered workload and run it."""
    return get_workload(request.workload).run(request)
