"""Structured diagnostic records shared by the verifier and race detector.

Every finding is a :class:`Diagnostic`: a stable rule id, a severity, the
subject (kernel or operation name), and — when the analysis knows it — the
source file and line the finding anchors to.  :class:`LintReport` aggregates
diagnostics across kernels and graphs for the ``repro lint`` CLI and the CI
gate (which fails on any error-severity diagnostic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Diagnostic", "LintReport", "Severity"]


class Severity:
    """Diagnostic severities, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"
    ALL = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    ``rule`` is a stable identifier (``KV1xx`` for kernel-verifier rules,
    ``GR2xx`` for graph race-detector rules); ``subject`` names the kernel
    or device operation the finding is about; ``category`` separates kernel
    findings from graph findings in reports.
    """

    rule: str
    severity: str
    subject: str
    message: str
    source: str = ""
    line: Optional[int] = None
    category: str = "kernel"            # "kernel" | "graph"

    def __post_init__(self):
        if self.severity not in Severity.ALL:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {Severity.ALL}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "source": self.source,
            "line": self.line,
            "category": self.category,
        }

    def __str__(self) -> str:
        loc = f"{self.source}:{self.line}: " if self.source and self.line \
            else ""
        return f"{loc}{self.severity} [{self.rule}] {self.subject}: {self.message}"


@dataclass
class LintReport:
    """Aggregated diagnostics plus per-subject bookkeeping for ``repro lint``."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: subjects analysed (kernels verified, graphs race-checked) — recorded
    #: even when clean, so "0 findings" is distinguishable from "0 subjects"
    kernels: List[str] = field(default_factory=list)
    graphs: List[str] = field(default_factory=list)
    #: free-form notes (e.g. "workload X declares no lint graph")
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------- mutation
    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "LintReport") -> "LintReport":
        self.diagnostics.extend(other.diagnostics)
        self.kernels.extend(other.kernels)
        self.graphs.extend(other.graphs)
        self.notes.extend(other.notes)
        return self

    # ------------------------------------------------------------- queries
    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity == Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity == Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was reported."""
        return not self.errors

    def rules(self) -> Tuple[str, ...]:
        """The distinct rule ids that fired, sorted (test helper)."""
        return tuple(sorted({d.rule for d in self.diagnostics}))

    def sorted_diagnostics(self) -> Tuple[Diagnostic, ...]:
        """Diagnostics in a run-independent order.

        Sorted by severity (errors first), rule id, site, then subject and
        message — so JSON output and CI asserts are stable regardless of
        registry or workload iteration order.
        """
        rank = {s: i for i, s in enumerate(Severity.ALL)}
        return tuple(sorted(
            self.diagnostics,
            key=lambda d: (rank.get(d.severity, len(rank)), d.rule,
                           d.source, d.line if d.line is not None else -1,
                           d.subject, d.message)))

    def rule_counts(self) -> Dict[str, int]:
        """Firing counts for every known rule (zero-filled catalog).

        Every rule in the :mod:`repro.analysis.rules` catalog appears with
        an explicit count — CI gates assert ``rules["KV106"] == 0`` without
        needing the rule to have fired.
        """
        from .rules import rule_catalog
        counts = {rule: 0 for rule in rule_catalog()}
        for d in self.diagnostics:
            counts[d.rule] = counts.get(d.rule, 0) + 1
        return counts

    # ----------------------------------------------------------- rendering
    def summary(self) -> Dict[str, object]:
        return {
            "kernels": len(self.kernels),
            "graphs": len(self.graphs),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": len(self.diagnostics),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "diagnostics": [d.as_dict() for d in self.sorted_diagnostics()],
            "kernels": sorted(self.kernels),
            "graphs": sorted(self.graphs),
            "notes": list(self.notes),
            "rules": self.rule_counts(),
            "summary": self.summary(),
        }

    def render(self) -> str:
        lines = [str(d) for d in self.sorted_diagnostics()]
        lines.extend(f"note: {n}" for n in self.notes)
        s = self.summary()
        lines.append(
            f"{s['kernels']} kernel(s), {s['graphs']} graph(s) analysed: "
            f"{s['errors']} error(s), {s['warnings']} warning(s)"
        )
        return "\n".join(lines)
