"""Autotuning subsystem: model-guided launch search with a persistent DB.

The paper's portability claim rests on per-architecture launch and tiling
choices (block-size sweeps in Figures 3-4, fast-math and register pressure
in Figures 6-7); this package makes those choices a searched, remembered
artefact instead of a hardcoded constant:

* :mod:`~repro.tuning.space` — the knobs a workload exposes
  (:class:`TuningSpace` / :class:`TuningConfig`);
* :mod:`~repro.tuning.model` — occupancy/roofline candidate pruning, run
  *before* any measurement;
* :mod:`~repro.tuning.tuner` — budgeted search (exhaustive or seeded
  random + hill-climb) scoring candidates on the analytic bench path, with
  capture/replay functional probes;
* :mod:`~repro.tuning.db` — the :class:`TuningDB` (a memo with a
  ``.repro_tune/`` disk tier) that persists winners per problem key;
* :mod:`~repro.tuning.report` — tuned-vs-untuned Φ (Table 5 revisited).

Requests opt in through ``RunRequest.tune``: ``"cached"`` applies a
remembered winner when one exists, ``"search"`` runs a search on a DB miss
first.  :func:`resolve_tuning` is the single entry point the workload base
class calls.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .db import (
    DEFAULT_TUNE_DIR,
    TuningDB,
    TuningRecord,
    configure_tuning_db,
    default_tuning_db,
)
from .model import CandidateEstimate, PruneReport, estimate_candidate, prune_space
from .probe import ProbeResult, run_probe
from .report import TuningReport, tuning_report
from .space import TuningConfig, TuningKnob, TuningSpace
from .tuner import DEFAULT_BUDGET, STRATEGIES, Evaluation, Tuner, TuningOutcome

__all__ = [
    "TuningKnob", "TuningConfig", "TuningSpace",
    "CandidateEstimate", "PruneReport", "estimate_candidate", "prune_space",
    "ProbeResult", "run_probe",
    "Tuner", "TuningOutcome", "Evaluation", "STRATEGIES", "DEFAULT_BUDGET",
    "TuningDB", "TuningRecord", "DEFAULT_TUNE_DIR", "default_tuning_db",
    "configure_tuning_db",
    "TuningReport", "tuning_report",
    "resolve_tuning",
]


def resolve_tuning(workload, request, *, db: Optional[TuningDB] = None,
                   ) -> Tuple[object, Dict[str, object]]:
    """Apply the request's ``tune`` mode; returns ``(request, info)``.

    ``"cached"`` consults the tuning database and applies the remembered
    winner when one exists (a miss runs untuned); ``"search"`` additionally
    runs a budgeted :class:`Tuner` search on a miss and persists the result,
    so only the first run of a problem pays for the search.  The returned
    info dict lands in the result's provenance under ``"tuning"``.
    """
    info: Dict[str, object] = {"mode": request.tune, "applied": False}
    space = workload.tuning_space(request)
    if space is None:
        info["reason"] = "no-tuning-space"
        return request, info
    db = db if db is not None else default_tuning_db()
    record = db.get(request, space)
    if record is None and request.tune == "search":
        outcome = Tuner(workload, request, space=space, db=db).search()
        record = outcome.record
        info["searched"] = True
        info["measured"] = len(outcome.evaluations)
    if record is None:
        info["reason"] = "db-miss"
        return request, info
    tuned = record.config.apply(request)
    info.update(
        applied=True,
        config=record.config.as_dict(),
        score_ms=record.score_ms,
        baseline_ms=record.baseline_ms,
        speedup=record.speedup,
        key=db.key_for(request, space),
    )
    return tuned, info
