"""The tuner: budgeted search over a pruned launch space.

Strategy selection follows the related auto-tuning systems (DaCe's
auto-optimizer, MIRGE's per-target transformation search): exhaustive
enumeration when the pruned space fits the measurement budget, seeded
random sampling plus a local hill-climb over the knob neighbourhood when it
does not.  Either way the candidate list is first cut down by the
occupancy/roofline pruner (:func:`repro.tuning.model.prune_space`), so
obviously infeasible or bandwidth-hopeless launches are never measured.

"Measuring" a candidate means running the workload's analytic bench path
(verification off, a single repeat) and reading its ``kernel_time_ms``
metric — exactly the quantity ``python -m repro bench`` reports — plus a
functional capture/replay probe (:mod:`repro.tuning.probe`) where the
workload provides one.  Results are deterministic: the analytic model is
pure and the random strategy is seeded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.errors import ConfigurationError, ReproError
from ..harness.runner import MeasurementProtocol
from .db import TuningDB, TuningRecord, default_tuning_db
from .model import (
    CandidateEstimate,
    PruneReport,
    estimate_candidate,
    prune_space,
)
from .probe import ProbeResult, run_probe
from .space import TuningConfig, TuningSpace

__all__ = ["Evaluation", "TuningOutcome", "Tuner", "STRATEGIES",
           "DEFAULT_BUDGET"]

#: search strategies: "auto" picks exhaustive when the pruned space fits the
#: budget and random+hill-climb otherwise
STRATEGIES = ("auto", "exhaustive", "random")

#: measured configurations (baseline included) when no budget is given
DEFAULT_BUDGET = 16


@dataclass
class Evaluation:
    """One measured candidate."""

    config: TuningConfig
    #: the pruner's occupancy/roofline estimate, ms
    modelled_ms: float
    #: the bench path's kernel cost, ms (inf when the run failed)
    measured_ms: float
    #: how the candidate entered the search
    source: str
    probe: Optional[ProbeResult] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return math.isfinite(self.measured_ms) and \
            (self.probe is None or self.probe.ok)

    def as_dict(self) -> Dict[str, object]:
        out = {
            "config": self.config.as_dict(),
            "label": self.config.label(),
            "modelled_ms": None if math.isinf(self.modelled_ms)
            else self.modelled_ms,
            "measured_ms": None if math.isinf(self.measured_ms)
            else self.measured_ms,
            "source": self.source,
            "ok": self.ok,
        }
        if self.probe is not None:
            out["probe"] = self.probe.as_dict()
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class TuningOutcome:
    """Everything one :meth:`Tuner.search` produced."""

    workload: str
    strategy: str
    budget: int
    prune: PruneReport
    evaluations: List[Evaluation] = field(default_factory=list)
    best: Optional[Evaluation] = None
    baseline: Optional[Evaluation] = None
    record: Optional[TuningRecord] = None
    db_key: str = ""

    @property
    def speedup(self) -> float:
        if self.best is None or self.baseline is None \
                or self.best.measured_ms <= 0:
            return 1.0
        return self.baseline.measured_ms / self.best.measured_ms

    def ranking(self) -> List[Evaluation]:
        """Measured candidates, best (lowest measured cost) first."""
        return sorted(self.evaluations, key=lambda e: e.measured_ms)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "budget": self.budget,
            "prune": self.prune.as_dict(),
            "evaluations": [e.as_dict() for e in self.ranking()],
            "best": self.best.as_dict() if self.best else None,
            "baseline": self.baseline.as_dict() if self.baseline else None,
            "speedup": self.speedup,
            "db_key": self.db_key,
        }


class Tuner:
    """Search a workload's tuning space for one request's best configuration."""

    def __init__(self, workload, request, *,
                 space: Optional[TuningSpace] = None,
                 db: Optional[TuningDB] = None,
                 budget: int = DEFAULT_BUDGET,
                 strategy: str = "auto",
                 seed: int = 2025,
                 prune: bool = True,
                 probe: bool = True):
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown tuning strategy {strategy!r}; expected one of "
                f"{STRATEGIES}"
            )
        if budget < 2:
            raise ConfigurationError(
                f"tuning budget must be >= 2 (baseline + one candidate), "
                f"got {budget}"
            )
        self.workload = workload
        self.request = request
        self.space = space if space is not None \
            else workload.tuning_space(request)
        if self.space is None:
            raise ConfigurationError(
                f"workload {workload.name!r} declares no tuning space"
            )
        self.db = db if db is not None else default_tuning_db()
        self.budget = int(budget)
        self.strategy = strategy
        self.seed = int(seed)
        self.prune = prune
        self.probe = probe

    # ------------------------------------------------------------ measurement
    def _measure(self, config: TuningConfig,
                 estimate: Optional[CandidateEstimate],
                 source: str) -> Evaluation:
        """Run the bench path (and the capture/replay probe) for one config."""
        tuned = config.apply(self.request).replace(
            tune="off", verify=False,
            protocol=MeasurementProtocol(warmup=0, repeats=1))
        modelled = estimate.modelled_ms if estimate is not None \
            else float("inf")
        try:
            result = self.workload.run(tuned)
            measured = float(result.metrics["kernel_time_ms"])
        except ReproError as exc:
            return Evaluation(config=config, modelled_ms=modelled,
                              measured_ms=float("inf"), source=source,
                              error=str(exc))
        probe = None
        if self.probe:
            probe = run_probe(self.workload, tuned)
            if probe is not None and not probe.ok:
                measured = float("inf")
        return Evaluation(config=config, modelled_ms=modelled,
                          measured_ms=measured, source=source, probe=probe)

    # ----------------------------------------------------------------- search
    def search(self, *, persist: bool = True) -> TuningOutcome:
        """Prune, measure within budget, pick the winner, persist it."""
        request = self.request
        report = prune_space(self.workload, request, self.space,
                             enabled=self.prune)
        by_config = {e.config: e for e in report.estimates}
        kept = [e.config for e in report.kept]  # best-estimate-first

        strategy = self.strategy
        if strategy == "auto":
            strategy = "exhaustive" if len(kept) < self.budget else "random"
        outcome = TuningOutcome(workload=self.workload.name,
                                strategy=strategy, budget=self.budget,
                                prune=report)
        seen = set()

        def measure(config: TuningConfig, source: str) -> Optional[Evaluation]:
            if config in seen or len(outcome.evaluations) >= self.budget:
                return None
            seen.add(config)
            estimate = by_config.get(config)
            if estimate is None:
                try:
                    model, launch = self.workload.tuning_model(
                        config.apply(request))
                    estimate = estimate_candidate(request.gpu, model, launch,
                                                  config)
                except ReproError:
                    estimate = None
            evaluation = self._measure(config, estimate, source)
            outcome.evaluations.append(evaluation)
            return evaluation

        # The untuned point is always measured: it anchors the speedup and
        # guarantees the winner is never worse than not tuning at all.
        baseline_config = self.space.baseline(request)
        outcome.baseline = measure(baseline_config, "baseline")

        if strategy == "exhaustive":
            for config in kept:
                measure(config, "grid")
        else:
            rng = random.Random(self.seed)
            pool = [c for c in kept if c not in seen]
            rng.shuffle(pool)
            sample = max((self.budget - len(outcome.evaluations)) // 2, 1)
            for config in pool[:sample]:
                measure(config, "random")
            self._hill_climb(outcome, kept, measure)

        ok = [e for e in outcome.evaluations if e.ok]
        outcome.best = min(ok, key=lambda e: (e.measured_ms, e.modelled_ms)) \
            if ok else None
        if outcome.best is not None and outcome.baseline is not None:
            outcome.record = TuningRecord(
                workload=self.workload.name,
                gpu=request.gpu, backend=request.backend,
                precision=request.precision,
                key_params={k: v for k, v in sorted(request.params.items())
                            if k not in set(self.space.param_names)},
                config=outcome.best.config,
                score_ms=outcome.best.measured_ms,
                baseline_ms=outcome.baseline.measured_ms,
                modelled_ms=outcome.best.modelled_ms,
                strategy=strategy, budget=self.budget,
                space_size=report.space_size, pruned=len(report.pruned),
                measured=len(outcome.evaluations),
            )
            if persist:
                outcome.db_key = self.db.put(request, outcome.record,
                                             self.space)
            else:
                outcome.db_key = self.db.key_for(request, self.space)
        return outcome

    def _hill_climb(self, outcome: TuningOutcome, kept: List[TuningConfig],
                    measure) -> None:
        """Greedy one-knob moves from the best measured point."""
        keepable = set(kept)
        estimates = {e.config: e.modelled_ms for e in outcome.prune.estimates}
        while len(outcome.evaluations) < self.budget:
            ok = [e for e in outcome.evaluations if e.ok]
            if not ok:
                return
            current = min(ok, key=lambda e: e.measured_ms)
            tried = {e.config for e in outcome.evaluations}
            moves = [c for c in self.space.neighbors(current.config)
                     if c in keepable and c not in tried]
            if not moves:
                return
            # try the model's favourite move first
            moves.sort(key=lambda c: estimates.get(c, float("inf")))
            improved = False
            for config in moves:
                if len(outcome.evaluations) >= self.budget:
                    return
                evaluation = measure(config, "climb")
                if evaluation is not None and evaluation.ok and \
                        evaluation.measured_ms < current.measured_ms:
                    improved = True
                    break
            if not improved:
                return
