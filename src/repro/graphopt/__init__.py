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
"""

from .lower import (LoweringUnsupported, lower_launch, lower_source,
                    lowering_report)
from .passes import GraphOptReport, PASS_NAMES, optimize_graph, parse_passes
from .report import GraphOptBenchReport, graphopt_report, replay_timings

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
