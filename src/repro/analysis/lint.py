"""Orchestration for ``repro lint``: verify kernels, race-check graphs.

Two populations are analysed:

* **kernels** — everything created through the :func:`repro.core.kernel.kernel`
  decorator.  :func:`shipped_kernels` imports the four science-kernel
  modules so their registrations exist even when nothing else has imported
  them yet, then snapshots the registry.
* **graphs** — each registered workload's :meth:`~repro.workloads.base.Workload.lint_graph`
  capture (a reduced-size recording of its real device pipeline), run
  through the happens-before race detector.

Graph linting is region-aware: every kernel op in a captured graph is
concretized against its recorded launch and buffer shapes
(:mod:`repro.analysis.regions`), which adds ``KV106`` out-of-bounds
findings, feeds the ``GR201``/``GR204`` refinement inside the race
detector, and *discharges* syntactic ``KV103`` warnings whose access the
regions prove in-bounds under every launch the graphs actually ship.
Lint captures run with enqueue-site recording forced on, so graph
diagnostics carry user-code ``file:line`` attribution.

Everything is aggregated into one :class:`~repro.analysis.diagnostics.LintReport`;
the CLI and the CI gate fail on any error-severity diagnostic.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .diagnostics import Diagnostic, LintReport
from .racecheck import analyze_graph, op_elided
from .verifier import RULE_UNGUARDED_INDEX, lint_kernel

__all__ = ["discharge_proven", "lint_graphs", "lint_kernels", "run_lint",
           "shipped_kernels"]

#: modules whose import registers the shipped science kernels
_KERNEL_MODULES = (
    "repro.kernels.stencil.kernel",
    "repro.kernels.babelstream.kernels",
    "repro.kernels.minibude.kernel",
    "repro.kernels.hartreefock.kernel",
)


def shipped_kernels() -> Dict[str, object]:
    """All decorator-registered kernels, with the shipped modules imported.

    Returns ``{name: Kernel}``, sorted by name.  Includes any kernels other
    imported modules registered — the lint contract is that *every*
    registered kernel verifies, not just the four headline ones.
    """
    for module in _KERNEL_MODULES:
        importlib.import_module(module)
    from ..core.kernel import registered_kernels

    return registered_kernels()


def lint_kernels(kernels: Optional[Iterable] = None) -> LintReport:
    """Verify *kernels* (default: :func:`shipped_kernels`) into a report."""
    report = LintReport()
    if kernels is None:
        items = list(shipped_kernels().items())
    elif isinstance(kernels, dict):
        items = sorted(kernels.items())
    else:
        items = sorted((getattr(k, "name", getattr(k, "__name__", repr(k))), k)
                       for k in kernels)
    for name, kern in items:
        report.kernels.append(name)
        report.extend(lint_kernel(kern))
    return report


def lint_graphs(workloads: Optional[Sequence[str]] = None, *,
                optimized: bool = True,
                proven_lines: Optional[Dict[str, Set[int]]] = None
                ) -> LintReport:
    """Race-check each workload's lint graph (default: all registered).

    A workload whose :meth:`lint_graph` returns None is recorded as a note;
    one whose capture itself raises becomes an error-severity diagnostic —
    a pipeline that cannot even be captured must not pass the lint gate
    silently.

    When *optimized* is true (the default) every captured graph is
    additionally pushed through the full :mod:`repro.graphopt` pass
    pipeline and the *transformed* graph is race-checked as its own
    subject — the graph-compiler contract is that an optimized graph lints
    as clean as its capture, including the provenance-aware ``GR203``
    reading of elided transfers.

    Captures run with :class:`DeviceContext` site recording forced on, so
    the race-detector diagnostics can attribute findings to the user code
    line that enqueued the racing op.  Every kernel op is also concretized
    through the region analysis: out-of-bounds accesses under the shipped
    launch geometry fire ``KV106``; accesses proven in-bounds accumulate
    into *proven_lines* (``{kernel: {line}}``) for KV103 discharge.
    """
    from ..core.device import DeviceContext
    from ..workloads import get_workload, list_workloads
    from .diagnostics import Severity

    report = LintReport()
    names = list(workloads) if workloads else list(list_workloads())
    bounds = _BoundsChecker(proven_lines)
    for name in names:
        workload = get_workload(name)
        saved_sites = DeviceContext.default_record_sites
        DeviceContext.default_record_sites = True
        try:
            graph = workload.lint_graph()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            report.add(Diagnostic(
                rule="GR200", severity=Severity.ERROR,
                subject=workload.name,
                message=f"lint_graph() failed to capture: {exc}",
                category="graph"))
            continue
        finally:
            DeviceContext.default_record_sites = saved_sites
        if graph is None:
            report.notes.append(
                f"workload {workload.name!r} declares no lint graph")
            continue
        report.graphs.append(getattr(graph, "name", workload.name))
        report.extend(analyze_graph(graph))
        report.extend(bounds.check(graph))
        if not optimized:
            continue
        from ..graphopt import optimize_graph

        try:
            # check=False: the optimized graph is linted *here*, as a
            # first-class subject, so its diagnostics land in the report
            # rather than being folded into an exception.
            opt, _ = optimize_graph(graph, "all", check=False)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            report.add(Diagnostic(
                rule="GR200", severity=Severity.ERROR,
                subject=workload.name,
                message=f"graph-compiler pipeline failed on the lint "
                        f"capture: {exc}",
                category="graph"))
            continue
        report.graphs.append(getattr(opt, "name", f"{workload.name}+opt"))
        report.extend(analyze_graph(opt))
        report.extend(bounds.check(opt))
    return report


class _BoundsChecker:
    """Concretize every kernel op once; collect KV106 + proven lines.

    Deduplicates per ``(kernel, launch, shapes)`` so a kernel appearing in
    both the capture and its optimized rewrite is checked once, and a line
    counts as *proven* only when every observed concretization of it was
    in-bounds (one unproven launch removes it — discharge must hold for
    everything the graphs actually ship).
    """

    def __init__(self, proven_lines: Optional[Dict[str, Set[int]]]):
        self.proven = proven_lines
        self._seen: Set = set()

    def check(self, graph) -> List[Diagnostic]:
        from .regions import bounds_diagnostics, concretize_launch
        diags: List[Diagnostic] = []
        ops = getattr(graph, "_ops", None) or ()
        for op in ops:
            if getattr(op, "kind", "") != "kernel" or op_elided(op):
                continue
            meta = getattr(op, "meta", None) or {}
            kern, args, launch = (meta.get("kern"), meta.get("args"),
                                  meta.get("launch"))
            if kern is None or args is None or launch is None:
                continue
            try:
                lr = concretize_launch(kern, args, launch)
            except Exception:  # pragma: no cover - lint must not crash
                continue
            if lr is None:
                continue
            key = (lr.kernel, id(getattr(kern, "fn", kern)),
                   tuple(lr.proven_lines), tuple(lr.unproven_lines),
                   lr.oob)
            if key in self._seen:
                continue
            self._seen.add(key)
            diags.extend(bounds_diagnostics(kern, args, launch))
            if self.proven is not None:
                proved = self.proven.setdefault(lr.kernel, set())
                proved.update(lr.proven_lines)
                unproved = self.proven.setdefault(f"!{lr.kernel}", set())
                unproved.update(lr.unproven_lines)
        return diags


def discharge_proven(report: LintReport,
                     proven_lines: Dict[str, Set[int]]) -> int:
    """Drop KV103 diagnostics the region analysis proved in-bounds.

    A KV103 finding at ``kernel:line`` is discharged when every graph
    concretization of that kernel proved the line's accesses inside the
    buffer extents — the guard KV103 wanted syntactically is supplied
    semantically by the launch/shape arithmetic.  Returns the number of
    discharged diagnostics.
    """
    kept = []
    dropped = 0
    for d in report.diagnostics:
        if d.rule == RULE_UNGUARDED_INDEX and d.line is not None:
            proved = proven_lines.get(d.subject, set())
            unproved = proven_lines.get(f"!{d.subject}", set())
            if d.line in proved and d.line not in unproved:
                dropped += 1
                continue
        kept.append(d)
    report.diagnostics[:] = kept
    return dropped


def run_lint(workloads: Optional[Sequence[str]] = None, *,
             graphs: bool = True) -> LintReport:
    """The full ``repro lint`` pass: every kernel, then the workload graphs.

    *workloads* filters the graph population only — kernel verification is
    cheap (one memoised kernel IR each) and always runs over the whole
    registry, so a narrowed lint cannot hide a broken kernel.
    """
    report = lint_kernels()
    if graphs:
        proven: Dict[str, Set[int]] = {}
        report.merge(lint_graphs(workloads, proven_lines=proven))
        discharged = discharge_proven(report, proven)
        if discharged:
            report.notes.append(
                f"{discharged} KV103 warning(s) discharged by region "
                f"analysis (access proven in-bounds under every shipped "
                f"launch)")
    from ..obs import metrics as _obs_metrics

    for diag in report.diagnostics:
        _obs_metrics.inc("lint_diagnostics_total", rule=diag.rule)
    return report
