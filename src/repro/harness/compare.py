"""Shape checks comparing measured results against the paper's claims.

Because the substrate is a simulator, experiments assert *shape* agreement:
relative ordering of programming models, approximate ratios within a band,
and qualitative observations — not absolute numbers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.errors import ConfigurationError
from .results import Comparison

__all__ = ["ratio_comparison", "ordering_comparison", "qualitative_comparison",
           "verification_comparison", "within_band"]


def within_band(measured: float, expected: float, *, rel_tol: float = 0.25) -> bool:
    """True when *measured* is within ``(1 ± rel_tol)`` of *expected*."""
    if expected == 0:
        return measured == 0
    return abs(measured - expected) / abs(expected) <= rel_tol


def ratio_comparison(label: str, measured: float, paper: Optional[float], *,
                     rel_tol: float = 0.25, detail: str = "") -> Comparison:
    """Compare a measured value against a paper value within a relative band.

    When the paper value is unknown (None) the comparison records the measured
    value and passes trivially.
    """
    if paper is None:
        return Comparison(label=label, measured=measured, paper=None,
                          kind="ratio", passed=True,
                          detail=detail or "paper value not reported")
    passed = within_band(measured, paper, rel_tol=rel_tol)
    return Comparison(label=label, measured=measured, paper=paper, kind="ratio",
                      passed=passed,
                      detail=detail or f"tolerance ±{rel_tol:.0%}")


def ordering_comparison(label: str, values: Dict[str, float],
                        expected_order: Sequence[str], *,
                        higher_is_better: bool = True,
                        detail: str = "") -> Comparison:
    """Check that *values* sort in the *expected_order*.

    ``expected_order`` lists keys from best to worst.  The recorded
    ``measured`` value is 1.0 when the ordering holds, 0.0 otherwise.
    """
    missing = [k for k in expected_order if k not in values]
    if missing:
        raise ConfigurationError(f"ordering check is missing values for {missing}")
    ranked = sorted(expected_order, key=lambda k: values[k],
                    reverse=higher_is_better)
    passed = list(ranked) == list(expected_order)
    observed = " > ".join(ranked) if higher_is_better else " < ".join(ranked)
    expected = " > ".join(expected_order) if higher_is_better else " < ".join(expected_order)
    return Comparison(
        label=label, measured=1.0 if passed else 0.0, paper=1.0,
        kind="ordering", passed=passed,
        detail=detail or f"expected {expected}, observed {observed}",
    )


def qualitative_comparison(label: str, passed: bool, *, detail: str = "") -> Comparison:
    """Record a free-form qualitative check."""
    return Comparison(label=label, measured=1.0 if passed else 0.0, paper=1.0,
                      kind="qualitative", passed=passed, detail=detail)


def verification_comparison(results: Sequence) -> Comparison:
    """One check that every functionally verified run in *results* passed.

    *results* are the :class:`~repro.workloads.base.WorkloadResult` objects
    an experiment ran with ``verify=True``.  ``Workload.run`` folds a
    verification failure into ``result.verification`` instead of raising,
    so this is the check that makes ``--verify`` fail the experiment.
    """
    failed = [r.verification.detail for r in results
              if not r.verification.passed]
    return qualitative_comparison(
        "functional verification on the simulator",
        bool(results) and not failed,
        detail="; ".join(failed) or f"{len(results)} verified run(s)")
