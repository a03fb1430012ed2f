"""Parameter sweeps for the experiment harness.

A :class:`Sweep` is an ordered cartesian product of named parameter lists
with optional filtering, used by the figure experiments (PPWI x work-group
sweeps, L x precision x block-shape sweeps, natoms x ngauss tables).

Sweeps speak the unified Workload API directly: :meth:`Sweep.requests` turns
each configuration into a validated ``RunRequest`` (``gpu``/``backend``/
``precision``/``fast_math``/``verify`` keys become request fields, the rest
workload params) and :meth:`Sweep.run_workload` executes them, so sweeping a
new workload needs no per-kernel glue.  A checkpointed sweep journals every
finished request and, resumed, re-runs only the ones that failed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError

__all__ = ["Sweep", "sweep"]


@dataclass
class Sweep:
    """Cartesian-product parameter sweep."""

    parameters: Dict[str, List[object]] = field(default_factory=dict)
    #: predicate applied to each candidate configuration
    constraint: Optional[Callable[[Mapping[str, object]], bool]] = None
    #: cached configuration count (invalidated by :meth:`add` / :meth:`where`)
    _count: Optional[int] = field(default=None, init=False, repr=False,
                                  compare=False)

    def add(self, name: str, values: Iterable[object]) -> "Sweep":
        values = list(values)
        if not values:
            raise ConfigurationError(f"sweep parameter {name!r} has no values")
        if name in self.parameters:
            raise ConfigurationError(f"sweep parameter {name!r} already defined")
        self.parameters[name] = values
        self._count = None
        return self

    def where(self, predicate: Callable[[Mapping[str, object]], bool]) -> "Sweep":
        """Attach (or chain) a configuration filter."""
        previous = self.constraint

        def combined(cfg: Mapping[str, object]) -> bool:
            if previous is not None and not previous(cfg):
                return False
            return predicate(cfg)

        self.constraint = combined if previous is not None else predicate
        self._count = None
        return self

    # ------------------------------------------------------------------ iterate
    def __iter__(self) -> Iterator[Dict[str, object]]:
        if not self.parameters:
            raise ConfigurationError("cannot iterate an empty sweep")
        names = list(self.parameters)
        for combo in itertools.product(*(self.parameters[n] for n in names)):
            cfg = dict(zip(names, combo))
            if self.constraint is None or self.constraint(cfg):
                yield cfg

    def configurations(self) -> List[Dict[str, object]]:
        """Materialise all (filtered) configurations."""
        return list(iter(self))

    def __len__(self) -> int:
        """Number of (filtered) configurations, counted lazily and cached.

        Without a constraint the count is the product of the parameter list
        lengths — no configuration dicts are built at all.  With a constraint
        the candidates are streamed through the predicate without
        materialising the configuration list.
        """
        if self._count is None:
            if not self.parameters:
                raise ConfigurationError("cannot iterate an empty sweep")
            if self.constraint is None:
                count = 1
                for values in self.parameters.values():
                    count *= len(values)
            else:
                count = sum(1 for _ in self)
            self._count = count
        return self._count

    def run(self, fn: Callable[..., object], *,
            workers: Optional[int] = None) -> List[object]:
        """Call ``fn(**configuration)`` for every configuration.

        With ``workers=N`` (N > 1) the configurations are evaluated on a
        thread pool.  The returned list is **guaranteed** to follow
        configuration order regardless of worker completion order: one
        future is submitted per configuration, in sweep order, and results
        are collected from that same ordered list (never from an
        as-completed iterator).  The default remains strictly sequential.
        """
        if workers is None or workers <= 1:
            return [fn(**cfg) for cfg in self]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, **cfg) for cfg in self]
            return [f.result() for f in futures]

    # --------------------------------------------------------------- workloads
    #: configuration keys lifted into RunRequest fields rather than params
    REQUEST_FIELDS = ("gpu", "backend", "precision", "fast_math", "verify",
                      "executor", "streams", "tune", "optimize")

    def requests(self, workload, **base) -> Iterator["object"]:
        """Yield one validated ``RunRequest`` per configuration.

        Sweep parameters named in :data:`REQUEST_FIELDS` (``gpu``,
        ``backend``, ``precision``, ``fast_math``, ``verify``,
        ``executor``, ``streams``, ``tune``, ``optimize``) become request
        fields;
        everything else goes
        into the workload-specific ``params`` mapping and is validated
        against the workload's parameter schema.  ``base`` supplies fixed
        request fields (including ``protocol``) for keys not swept over.
        """
        # imported here to break the cycle: workloads.base imports
        # harness.runner, whose package __init__ imports this module
        from ..workloads import get_workload

        wl = get_workload(workload)
        for cfg in self:
            fields = dict(base)
            params = {}
            for name, value in cfg.items():
                if name in self.REQUEST_FIELDS:
                    fields[name] = value
                else:
                    params[name] = value
            yield wl.make_request(params=params, **fields)

    def run_workload(self, workload, *, workers: Optional[int] = None,
                     cache=True, checkpoint=None, resume: bool = True,
                     on_error: str = "raise", **base) -> List[object]:
        """Run a registered workload over every configuration.

        Returns one ``WorkloadResult`` per configuration, in sweep order
        (same ordering guarantee as :meth:`run`); ``workers=N`` evaluates
        them on a thread pool.

        Results are memoised by their frozen ``RunRequest`` through the
        request-level result cache (:mod:`repro.workloads.cache`), so
        repeated sweep points — and repeated sweeps over overlapping
        configurations — are answered without re-running the workload.
        ``cache`` is ``True`` (the process-wide default cache), a
        :class:`~repro.workloads.cache.ResultCache` to use instead, or
        ``False`` to force fresh runs.

        Recovery (off by default — the plain path is unchanged) is the
        checkpoint journal, outside the result cache
        (:func:`~repro.resilience.checkpointed`):

        * ``checkpoint=path`` journals every finished request to a
          JSON-lines file; with ``resume=True`` (default) an existing
          journal is replayed: completed requests are **not re-run**,
          failed ones (including failed verifications) are.
          ``checkpoint`` also accepts a ready
          :class:`~repro.resilience.CheckpointJournal`.
        * ``on_error`` — ``"raise"`` propagates the first failure;
          ``"skip"`` turns a failed request into a
          :class:`~repro.resilience.FailureRecord` in the result list.
        """
        from ..workloads import get_workload  # cycle-break, as in requests()
        from ..workloads.cache import run_cached

        wl = get_workload(workload)
        reqs = list(self.requests(wl, **base))
        # The runner closes over the resolved instance: run_cached must not
        # re-resolve by name, or sweeps over unregistered workloads break.
        target = None if cache is True else cache
        runner = (lambda r: run_cached(r, cache=target, workload=wl)) \
            if cache else wl.run
        if checkpoint is not None or on_error != "raise":
            from ..resilience import CheckpointJournal, checkpointed

            if checkpoint is not None \
                    and not isinstance(checkpoint, CheckpointJournal):
                checkpoint = CheckpointJournal(checkpoint, resume=resume)
            runner = checkpointed(runner, checkpoint, on_error=on_error)
        if workers is None or workers <= 1:
            return [runner(r) for r in reqs]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(runner, r) for r in reqs]
            return [f.result() for f in futures]


def sweep(**parameters: Iterable[object]) -> Sweep:
    """Build a :class:`Sweep` from keyword parameter lists."""
    s = Sweep()
    for name, values in parameters.items():
        s.add(name, values)
    return s
