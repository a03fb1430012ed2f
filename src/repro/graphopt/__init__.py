"""Graph compiler: optimizing passes and a lowering tier for DeviceGraphs.

The compilation stack the paper's thesis calls for, applied to the captured
graph IR: :func:`optimize_graph` runs the pass pipeline (kernel fusion,
transfer/memset elision, invariant-transfer hoisting) over a
:class:`~repro.core.device.DeviceGraph`, and :mod:`repro.graphopt.lower`
compiles vector-safe kernel bodies (fused or not) into NumPy whole-array
slicing, which the executor's default ``auto`` dispatch tries first.

Entry points
------------
* ``optimize_graph(graph, passes="all")`` -> ``(optimized_graph, report)``
* ``lower_launch(kern, args, launch)`` -> compiled entry or ``None``
* ``RunRequest(optimize="all")`` opts a workload's captured graphs in
* ``repro graph <workload> --passes ...`` inspects what the passes did

The names below resolve on first access (:mod:`repro._lazy`): the
executor's ``auto`` dispatch imports the lowering tier without the passes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".lower": ("LoweringUnsupported", "lower_launch", "lower_source",
               "lowering_report"),
    ".passes": ("GraphOptReport", "PASS_NAMES", "optimize_graph",
                "parse_passes"),
    ".report": ("GraphOptBenchReport", "graphopt_report", "replay_timings"),
})

__all__ = [
    "GraphOptBenchReport",
    "GraphOptReport",
    "LoweringUnsupported",
    "PASS_NAMES",
    "graphopt_report",
    "lower_launch",
    "lower_source",
    "lowering_report",
    "optimize_graph",
    "parse_passes",
    "replay_timings",
]
