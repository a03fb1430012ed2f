"""Per-workload graph-compiler entries: ``repro graph`` and EXPERIMENTS.md.

:func:`graph_entry` runs one workload's lint capture through a pass
pipeline and returns what ``repro graph --json`` prints for it: the
:func:`~repro.graphopt.passes.optimize_graph` report, the race detector's
verdict on the optimized graph and one
:func:`~repro.graphopt.lower.lowering_report` per surviving kernel.
:func:`graphopt_markdown` renders those entries as the report's
graph-compiler section.  Every number in an entry is modelled or counted,
so the section is a pure function of the code.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis.diagnostics import Severity
from ..analysis.racecheck import analyze_graph, op_elided
from ..harness.results import ResultTable
from .lower import lowering_report
from .passes import optimize_graph

__all__ = ["graph_entry", "graphopt_markdown"]


def graph_entry(name: str, passes: str) -> Dict[str, object]:
    """What the *passes* pipeline does to workload *name*'s lint capture.

    The keys are the optimizer report's, plus ``lint_clean`` /
    ``lint_diagnostics`` (the race detector on the optimized graph) and
    ``lowering`` (one lowering outcome per kernel left after elision).  A
    workload that declares no lint graph gets ``graph: None`` and a note.
    """
    from ..workloads import get_workload

    graph = get_workload(name).lint_graph()
    if graph is None:
        return {"workload": name, "graph": None,
                "note": "declares no lint graph"}
    optimized, report = optimize_graph(graph, passes)
    diags = analyze_graph(optimized)
    lowering = [lowering_report(op.meta["kern"], op.meta["args"],
                                op.meta["launch"])
                for op in optimized.ops
                if op.kind == "kernel" and not op_elided(op)
                and "kern" in (op.meta or {})]
    return {"workload": name, **report.as_dict(),
            "lint_clean": not any(d.severity == Severity.ERROR
                                  for d in diags),
            "lint_diagnostics": [d.as_dict() for d in diags],
            "lowering": lowering}


def graphopt_markdown(entries: Sequence[Dict[str, object]]) -> str:
    """The report's graph-compiler section for :func:`graph_entry` output."""
    table = ResultTable(
        columns=["workload", "ops", "kernels", "fused", "elided", "lowered",
                 "lint"],
        title="Graph-compiler rewrite of each lint capture")
    for entry in entries:
        if entry["graph"] is None:
            table.add_row(workload=entry["workload"], ops=entry["note"])
            continue
        lowered = sum(1 for low in entry["lowering"] if low["lowered"])
        table.add_row(
            workload=entry["workload"],
            ops=f"{entry['ops_before']} → {entry['ops_after']}",
            kernels=f"{entry['kernels_before']} → {entry['kernels_after']}",
            fused="; ".join(" + ".join(group["parts"])
                            for group in entry["fused"]) or "none",
            elided=len(entry["elided"]),
            lowered=f"{lowered}/{len(entry['lowering'])}",
            lint="clean" if entry["lint_clean"] else "ERRORS")
    passes = next((entry["passes"] for entry in entries
                   if entry["graph"] is not None), [])
    return "\n".join([
        "## Graph compiler: modelled rewrite",
        "",
        f"Each workload's lint capture through the `{','.join(passes)}` "
        "pipeline, as `repro graph --all --json` reports it: operations "
        "and kernels before → after, the fused kernel groups, elided "
        "transfers, the surviving kernels the lowering tier "
        "compiles to NumPy, and the race detector's verdict on the "
        "optimized graph. Replay wall times are host measurements, so "
        "they stay out of this report.",
        "",
        table.to_markdown(),
    ])

