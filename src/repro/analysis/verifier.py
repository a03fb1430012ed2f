"""Kernel verification: SIMT rules read off the shared kernel IR.

The verifier judges a ``@kernel`` body against the SIMT model without
running it.  It does not walk the source itself: it reads the facts the
kernel front end (:mod:`repro.analysis.kernel_ir`) records in its one
abstract interpretation of the body — the taint of every index
(``UNIFORM`` / ``GUARDED`` / ``LANE``), the lane-dependent tests that
enclose each access, barrier, and return, the shared-array accesses per
barrier phase, and the constructs with no SIMT meaning.  The region
analysis and the lowering tier read the same IR, so the three agree on
what a guard means.

Rules
-----
``KV100`` flag/inference mismatch — ``vector_safe=True`` declared but the
verifier cannot confirm the body is lockstep-safe (error), or the source is
unavailable for analysis (warning).

``KV101`` barrier divergence — a ``barrier()`` reachable only under a
lane-dependent branch, or a lane-guarded ``return`` that lets some lanes
skip a later barrier.

``KV102`` shared-memory race — write/write or read/write accesses to one
shared array within a single barrier-delimited phase whose index sets may
collide.  The tree-reduction idiom (mask ``lane < B``, read at ``lane + B``)
is recognised as disjoint.

``KV103`` unguarded index — a raw-``LANE`` index into a kernel-parameter
tensor with no dominating guard mentioning the index (shared arrays are
block-sized by construction and the masked accessors are predicated, so
both are exempt).

``KV104`` non-SIMT-safe construct — ``print``, ``global`` / ``nonlocal``
(mutating closures), ``yield``.

``KV105`` data-dependent ``while`` — a loop condition that varies per lane
without an ``any_lane`` / ``all_lanes`` reduction.

``KV106`` out-of-bounds access — the symbolic region analysis
(:mod:`repro.analysis.regions`) proves an access escapes a buffer's extent
under a concrete launch geometry: an unguarded endpoint-exact index whose
interval leaves ``[0, extent)``, or a guarded index whose entire interval
lies outside it.  Fired at graph-lint time, where the shipped launch and
buffer shapes are known; the same concretization discharges ``KV103``
warnings whose access is proven in-bounds under every observed launch.

Verification is memoised on the underlying function object, so
decoration-time checks (``@kernel(strict=True)``) and the launch-path
``kernel_vector_safe`` consultation read one IR, built once per kernel
body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.memo import Memo
from .diagnostics import Diagnostic, Severity
from .kernel_ir import (UNIFORM, LANE, Access, KernelIR, kernel_ir,
                        underlying_fn)

__all__ = [
    "RULE_FLAG_MISMATCH",
    "RULE_BARRIER_DIVERGENCE",
    "RULE_SHARED_RACE",
    "RULE_UNGUARDED_INDEX",
    "RULE_SIMT_UNSAFE",
    "RULE_DATA_DEPENDENT_WHILE",
    "RULE_OOB_ACCESS",
    "VerifierResult",
    "infer_vector_safe",
    "lint_kernel",
    "verify_kernel",
]

RULE_FLAG_MISMATCH = "KV100"
RULE_BARRIER_DIVERGENCE = "KV101"
RULE_SHARED_RACE = "KV102"
RULE_UNGUARDED_INDEX = "KV103"
RULE_SIMT_UNSAFE = "KV104"
RULE_DATA_DEPENDENT_WHILE = "KV105"
RULE_OOB_ACCESS = "KV106"


@dataclass(frozen=True)
class VerifierResult:
    """Outcome of verifying one kernel body."""

    kernel: str
    source: str
    #: the hand-set ``vector_safe`` flag (None when never declared)
    declared: Optional[bool]
    #: the verifier's verdict (None when the source is unavailable)
    inferred: Optional[bool]
    #: why the body cannot run in lockstep (empty when inferred is True)
    reasons: Tuple[str, ...]
    #: body-rule findings (KV101-KV105); KV100 is added by :func:`lint_kernel`
    diagnostics: Tuple[Diagnostic, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "source": self.source,
            "declared": self.declared,
            "inferred": self.inferred,
            "reasons": list(self.reasons),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


#: KV104 message per construct the IR flags as having no SIMT meaning
_UNSAFE = {
    "print": "print() inside a kernel body is not SIMT-safe "
             "(side effects are per-lane-set, not per-thread)",
    "global": "global statement ({}) mutates state outside the kernel's "
              "lane-private scope",
    "nonlocal": "nonlocal statement ({}) mutates an enclosing closure; "
                "kernel bodies must be lane-pure",
    "yield": "yield inside a kernel body (kernels are not generators)",
}


def _reason(kind: str, line: int, test) -> str:
    if kind == "if":
        return (f"lane-dependent branch at line {line} "
                f"({ast.unparse(test)!r}); lockstep execution needs "
                f"any_lane/compress_lanes or lane_where")
    return {"ifexp": f"lane-dependent conditional expression at line {line} "
                     f"(use lane_where)",
            "while": f"data-dependent while at line {line}",
            "for": f"lane-dependent iteration at line {line}"}[kind]


def _body_rules(ir: KernelIR) -> Tuple[List[Tuple], List[str]]:
    """(rule, line, message) findings and lockstep refusals, in line order."""
    found: List[Tuple] = []
    seen: Set[int] = set()
    for acc in ir.accesses:
        if acc.index is None or acc.covered or acc.taint != LANE \
                or id(acc.node) in seen:
            continue
        seen.add(id(acc.node))
        found.append((RULE_UNGUARDED_INDEX, acc.line,
                      f"raw lane-derived index {ast.unparse(acc.node)!r} "
                      f"into tensor parameter {acc.param!r} with no "
                      f"dominating guard, clamp (lane_where/compress_lanes) "
                      f"or mask"))
    for line, guard in ir.barriers:
        if guard is not None:
            found.append((RULE_BARRIER_DIVERGENCE, line,
                          f"barrier() is reachable only under the "
                          f"lane-dependent branch {ast.unparse(guard)!r}; "
                          f"lanes that skip it deadlock the block"))
    for line, what, names in ir.unsafe:
        found.append((RULE_SIMT_UNSAFE, line,
                      _UNSAFE[what].format(", ".join(names))))
    reasons: List[str] = []
    for kind, line, test in ir.divergence:
        if kind == "while":
            found.append((RULE_DATA_DEPENDENT_WHILE, line,
                          f"while condition {ast.unparse(test)!r} varies "
                          f"per lane; reduce it with any_lane/all_lanes so "
                          f"every lane agrees on the trip count"))
        text = _reason(kind, line, test)
        if text not in reasons:
            reasons.append(text)
    found.sort(key=lambda f: f[1])
    if ir.barriers and ir.lane_returns:
        last = max(line for line, _ in ir.barriers)
        found += [(RULE_BARRIER_DIVERGENCE, line,
                   f"return under a lane-dependent guard lets some lanes "
                   f"skip the barrier at line {last}")
                  for line in ir.lane_returns if line < last]
    return found + _shared_races(ir), reasons


# --------------------------------------------------------- shared-race pass
def _key(node: Optional[ast.expr]) -> Optional[str]:
    return None if node is None else ast.dump(node)


def _disjoint_reduction(write: Access, read: Access) -> bool:
    """The tree-reduction idiom: mask ``X < B``, write X, read X + B."""
    mask = write.mask
    if mask is None or _key(mask) != _key(read.mask):
        return False
    if not (isinstance(mask, ast.Compare) and len(mask.ops) == 1
            and isinstance(mask.ops[0], (ast.Lt, ast.LtE))):
        return False
    x_key, b_key = _key(mask.left), _key(mask.comparators[0])
    if _key(write.node) != x_key:
        return False
    idx = read.node
    if not (isinstance(idx, ast.BinOp) and isinstance(idx.op, ast.Add)):
        return False
    return {_key(idx.left), _key(idx.right)} == {x_key, b_key}


def _same_slot(a: Access, b: Access) -> bool:
    """Every lane touches its own slot in both accesses."""
    return _key(a.node) == _key(b.node) and _key(a.mask) == _key(b.mask)


def _shared_races(ir: KernelIR) -> List[Tuple]:
    groups: Dict[Tuple[str, int], List[Access]] = {}
    for acc in ir.accesses:
        if acc.index is None:
            groups.setdefault((acc.param, acc.phase), []).append(acc)
    found: List[Tuple] = []
    reported: Set[Tuple[str, int, int]] = set()

    def report(key, line, message):
        if key not in reported:
            reported.add(key)
            found.append((RULE_SHARED_RACE, line, message))

    for (array, _), accs in groups.items():
        writes = [a for a in accs if a.kind == "w"]
        reads = [a for a in accs if a.kind == "r"]
        for w in writes:
            w_idx = ast.unparse(w.node)
            # all lanes storing through one uniform index, unpredicated
            if w.taint == UNIFORM and w.mask is None:
                report((array, w.line, -1), w.line,
                       f"every lane writes {array}[{w_idx}] in the same "
                       f"barrier phase (write/write race); predicate the "
                       f"store or index it per lane")
                continue
            for other in writes:
                if other is w or other.line < w.line or _same_slot(w, other):
                    continue
                report((array, w.line, other.line), other.line,
                       f"writes to {array!r} at distinct lane indices "
                       f"({w_idx!r} vs {ast.unparse(other.node)!r}) in one "
                       f"barrier phase (write/write race); separate them "
                       f"with barrier()")
            for r in reads:
                if _same_slot(w, r) or _disjoint_reduction(w, r):
                    continue
                report((array, w.line, r.line), r.line,
                       f"read of {array}[{ast.unparse(r.node)}] races the "
                       f"write at line {w.line} ({array}[{w_idx}]) in the "
                       f"same barrier phase; separate them with barrier()")
    return found


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

#: one verification verdict per kernel function
VERIFY_MEMO = Memo("verify")


def verify_kernel(kern) -> VerifierResult:
    """Verify a kernel (or plain callable) body; memoised per function.

    Returns a :class:`VerifierResult` whose ``inferred`` field is the
    verifier's lockstep-safety verdict — ``None`` when the source is
    unavailable (``exec``-defined bodies, builtins), in which case no body
    rules run either.
    """
    fn = underlying_fn(kern)
    return VERIFY_MEMO.get_or_compute(fn, lambda: _verify(kern, fn))


def _verify(kern, fn) -> VerifierResult:
    name = getattr(kern, "name", None) or getattr(fn, "__name__", "<kernel>")
    declared = _declared_flag(kern, fn)
    ir = kernel_ir(fn)
    if ir is None:
        return VerifierResult(kernel=name, source="", declared=declared,
                              inferred=None, reasons=(
                                  "source unavailable for analysis",),
                              diagnostics=())
    found, reasons = _body_rules(ir)
    if not ir.analyzable:  # pragma: no cover - pathological bodies
        reasons.append("body too deep for analysis")
    diags = tuple(Diagnostic(rule=rule, severity=Severity.ERROR, subject=name,
                             message=message, source=ir.source, line=line,
                             category="kernel")
                  for rule, line, message in found)
    return VerifierResult(kernel=name, source=ir.source, declared=declared,
                          inferred=not reasons and not diags,
                          reasons=tuple(reasons), diagnostics=diags)


def infer_vector_safe(kern) -> Optional[bool]:
    """The verifier's lockstep-safety verdict (None = source unavailable)."""
    return verify_kernel(kern).inferred


def lint_kernel(kern) -> List[Diagnostic]:
    """Body-rule diagnostics plus the declared-flag consistency check.

    A ``vector_safe=True`` declaration the verifier refutes is a KV100
    error; a declaration it cannot analyse at all is a KV100 warning.
    """
    result = verify_kernel(kern)
    diags = list(result.diagnostics)
    if result.declared:
        if result.inferred is False:
            reasons = "; ".join(result.reasons) or "body rules failed"
            diags.append(Diagnostic(
                rule=RULE_FLAG_MISMATCH, severity=Severity.ERROR,
                subject=result.kernel,
                message=f"declared vector_safe=True but the verifier "
                        f"cannot confirm lockstep safety: {reasons}",
                source=result.source, category="kernel"))
        elif result.inferred is None:
            diags.append(Diagnostic(
                rule=RULE_FLAG_MISMATCH, severity=Severity.WARNING,
                subject=result.kernel,
                message="declared vector_safe=True but the body source is "
                        "unavailable for verification",
                source=result.source, category="kernel"))
    return diags


def _declared_flag(kern, fn) -> Optional[bool]:
    declared = getattr(kern, "declared_vector_safe", None)
    if declared is not None:
        return declared
    if hasattr(fn, "_repro_vector_safe"):
        return bool(fn._repro_vector_safe)
    return None
