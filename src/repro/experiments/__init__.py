"""One experiment module per table/figure of the paper's evaluation.

Every module exposes ``run(**options) -> ExperimentResult`` plus module
constants ``EXPERIMENT_ID`` and ``DESCRIPTION``; it holds its axes and its
paper checks, and :mod:`.driver` runs the points.  The registry below maps
the paper artifact identifiers to those runners for the CLI and the
benchmark suite.
"""

from __future__ import annotations

from typing import List

from ..core.errors import ConfigurationError
from ..harness.compare import verification_comparison
from ..harness.results import ExperimentResult
from . import (
    fig2_roofline,
    fig3_stencil,
    fig4_babelstream,
    fig5_sass,
    fig6_minibude_h100,
    fig7_minibude_mi300a,
    table2_stencil_ncu,
    table3_babelstream_ncu,
    table4_hartreefock,
    table5_portability,
)
from .driver import result_scope

__all__ = ["EXPERIMENTS", "run_experiment", "list_experiments"]

#: experiment id -> module
EXPERIMENTS = {
    module.EXPERIMENT_ID: module
    for module in (
        fig2_roofline,
        fig3_stencil,
        fig4_babelstream,
        fig5_sass,
        fig6_minibude_h100,
        fig7_minibude_mi300a,
        table2_stencil_ncu,
        table3_babelstream_ncu,
        table4_hartreefock,
        table5_portability,
    )
}


def list_experiments() -> List[str]:
    """Identifiers of all registered experiments, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, **options) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"fig3"`` or ``"table4"``).

    Runs inside the caller's :func:`~.driver.result_scope`, or a fresh one.
    When the experiment read verified results, its last check is that all
    of them passed.
    """
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {list_experiments()}"
        )
    with result_scope() as verified:
        result = EXPERIMENTS[key].run(**options)
    if verified:
        result.add_comparison(verification_comparison(verified))
    return result
