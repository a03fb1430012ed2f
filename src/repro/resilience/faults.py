"""Deterministic fault injection for the simulated substrate.

Chaos testing a deterministic simulator only makes sense if the chaos is
deterministic too: the same :class:`FaultPlan` (a seed plus a list of
:class:`FaultRule`\\ s) against the same run sequence fires the same faults
at the same operations, every time.  Each injection *site* keeps a global
occurrence counter; whether occurrence *i* of a site faults is decided
either by an explicit index list (``indices=[0, 3]``) or by a seeded hash
draw (``probability=0.2``) — never by wall clock or shared RNG state, so
concurrent sweeps see a reproducible fault schedule per site.

Injection sites wired into the existing layers
----------------------------------------------

================== =========================================================
``transfer.h2d``    raise :class:`DeviceError` before an H2D copy executes
``transfer.d2h``    raise :class:`DeviceError` before a D2H copy executes
``corrupt.h2d``     flip the first element of the device buffer after H2D
``corrupt.d2h``     flip the first element of the host destination after D2H
``launch``          raise :class:`LaunchError` at :meth:`KernelExecutor.launch`
                    and at every graph-replay kernel step
``launch.vectorized`` raise :class:`LaunchError` inside ``run_vectorized``
``launch.lowered``  raise :class:`LaunchError` before a lowered entry runs,
                    in ``launch`` and in graph-replay thunks alike
``diskstore.read``  make one JSON store read report a miss (torn read)
================== =========================================================

The injector is **off by default** and costs one module-attribute load on
the hot paths when disabled (``_ACTIVE is None`` — guarded by the chaos
suite's zero-overhead test).  Install one for a scope with::

    with install_fault_plan(FaultPlan(seed=7, rules=[...])) as injector:
        ...
    injector.stats()   # what actually fired

Injected exceptions are ordinary :class:`DeviceError` / :class:`LaunchError`
instances carrying ``injected=True`` and an ``[fault-injection]`` marker, so
sweep failure capture and checkpoint journaling see exactly the production
error route.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, DeviceError, LaunchError
from ..obs import metrics as _obs_metrics

__all__ = [
    "FAULT_SITES",
    "FaultRule",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "install_fault_plan",
    "active_injector",
]

#: every site the substrate exposes; rules naming anything else are rejected
FAULT_SITES = (
    "transfer.h2d",
    "transfer.d2h",
    "corrupt.h2d",
    "corrupt.d2h",
    "launch",
    "launch.vectorized",
    "launch.lowered",
    "diskstore.read",
)


@dataclass(frozen=True)
class FaultRule:
    """One site's fault schedule.

    Exactly one trigger applies: an explicit occurrence ``indices`` tuple
    (fire at the i-th time the site is reached, 0-based, globally counted
    per injector) or a seeded ``probability`` draw per occurrence.
    ``max_faults`` caps how often the rule may fire; ``match`` restricts the
    rule to operations whose label contains the substring (e.g. a buffer
    label).
    """

    site: str
    probability: float = 1.0
    indices: Optional[Tuple[int, ...]] = None
    max_faults: Optional[int] = None
    match: str = ""

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.indices is not None:
            object.__setattr__(self, "indices",
                               tuple(int(i) for i in self.indices))
            if any(i < 0 for i in self.indices):
                raise ConfigurationError("fault indices must be >= 0")
        if self.max_faults is not None and self.max_faults < 1:
            raise ConfigurationError("max_faults must be >= 1")

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"site": self.site}
        if self.indices is not None:
            out["indices"] = list(self.indices)
        else:
            out["probability"] = self.probability
        if self.max_faults is not None:
            out["max_faults"] = self.max_faults
        if self.match:
            out["match"] = self.match
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultRule":
        known = {"site", "probability", "indices", "max_faults", "match"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-rule key(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(payload)
        if "indices" in kwargs and kwargs["indices"] is not None:
            kwargs["indices"] = tuple(kwargs["indices"])
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of fault rules; JSON round-trippable."""

    seed: int = 2025
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def as_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "rules": [r.as_dict() for r in self.rules]}

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError("fault plan must be a JSON object")
        unknown = set(payload) - {"seed", "rules"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan key(s) {sorted(unknown)}")
        rules = payload.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ConfigurationError("fault-plan 'rules' must be a list")
        return cls(seed=int(payload.get("seed", 2025)),
                   rules=tuple(FaultRule.from_dict(r) for r in rules))

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid fault-plan JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read fault plan {path!r}: {exc}")
        return cls.loads(text)


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, for post-run inspection and determinism checks."""

    site: str
    index: int
    key: str
    kind: str  # "error" | "corrupt" | "miss"


def _draw(seed: int, site: str, index: int) -> float:
    """Deterministic uniform [0, 1) draw for occurrence *index* of *site*.

    Hash-based rather than ``random.Random`` so the draw for occurrence
    *i* never depends on how many other sites were visited in between.
    """
    digest = hashlib.sha256(f"{seed}:{site}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Executes a :class:`FaultPlan` against the substrate's hook points.

    Thread-safe: per-site occurrence counters and the fired-event log are
    guarded by one lock.  The decision for occurrence *i* of a site depends
    only on ``(plan.seed, site, i)`` and the rule list, so a repeated
    operation — which arrives as a *later* occurrence — sees a fresh
    decision.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}  # rule position -> times fired
        self.events: List[FaultEvent] = []
        self._rules_by_site: Dict[str, List[Tuple[int, FaultRule]]] = {}
        for pos, rule in enumerate(plan.rules):
            self._rules_by_site.setdefault(rule.site, []).append((pos, rule))

    # --------------------------------------------------------------- decision
    def decide(self, site: str, key: str = "",
               kind: str = "error") -> Optional[FaultRule]:
        """Consume one occurrence of *site*; the matching rule if it fires."""
        rules = self._rules_by_site.get(site)
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            if not rules:
                return None
            for pos, rule in rules:
                if rule.match and rule.match not in key:
                    continue
                fired = self._fired.get(pos, 0)
                if rule.max_faults is not None and fired >= rule.max_faults:
                    continue
                if rule.indices is not None:
                    hit = index in rule.indices
                else:
                    hit = _draw(self.plan.seed, site, index) < rule.probability
                if hit:
                    self._fired[pos] = fired + 1
                    self.events.append(FaultEvent(site=site, index=index,
                                                  key=key, kind=kind))
                    _obs_metrics.inc("fault_injections_fired_total",
                                     site=site)
                    return rule
        return None

    # ------------------------------------------------------------ hook points
    def fail_transfer(self, kind: str, label: str) -> None:
        """Hook for ``transfer.h2d`` / ``transfer.d2h`` (raises)."""
        rule = self.decide(f"transfer.{kind}", label)
        if rule is not None:
            exc = DeviceError(
                f"[fault-injection] {kind} transfer of buffer {label!r} "
                f"failed (site transfer.{kind})"
            )
            exc.injected = True
            raise exc

    def corrupt_transfer(self, kind: str, label: str, sink) -> None:
        """Hook for ``corrupt.h2d`` / ``corrupt.d2h`` (flips one element)."""
        rule = self.decide(f"corrupt.{kind}", label, kind="corrupt")
        if rule is not None:
            corrupt_array(sink)

    def fail_launch(self, site: str, name: str) -> None:
        """Hook for the ``launch`` / ``launch.*`` sites (raises)."""
        rule = self.decide(site, name)
        if rule is not None:
            exc = LaunchError(
                f"[fault-injection] kernel {name!r} launch failed "
                f"(site {site})"
            )
            exc.injected = True
            raise exc

    def corrupt_read(self, path: str) -> bool:
        """Hook for ``diskstore.read``; True turns the read into a miss."""
        return self.decide("diskstore.read", path, kind="miss") is not None

    # ------------------------------------------------------------- statistics
    def stats(self) -> Dict[str, object]:
        with self._lock:
            fired_by_site: Dict[str, int] = {}
            for event in self.events:
                fired_by_site[event.site] = fired_by_site.get(event.site, 0) + 1
            return {
                "occurrences": dict(self._counts),
                "fired": fired_by_site,
                "total_fired": len(self.events),
            }


def corrupt_array(array) -> None:
    """Deterministically damage *array* in place (a garbage transfer).

    Every seventh element is overwritten, starting from the middle — dense
    enough that any interior region a verifier actually checks is hit
    (grid workloads often exclude boundary cells, so a single corner flip
    could go unnoticed), sparse enough to still look like corruption
    rather than a missing transfer.  Floats get an enormous finite value
    (guaranteed to blow any relative tolerance); integers/bools get
    bit-flipped.
    """
    import numpy as np

    flat = array.reshape(-1)
    if flat.size == 0:  # pragma: no cover - zero-length buffers
        return
    sel = slice(flat.size // 2 % 7, None, 7)
    if np.issubdtype(flat.dtype, np.floating):
        flat[sel] = flat.dtype.type(1e30)
    elif flat.dtype == np.bool_:
        flat[sel] = ~flat[sel]
    else:
        flat[sel] = ~flat[sel]


# ---------------------------------------------------------------------------
# The module-level active injector (the hot paths read this attribute)
# ---------------------------------------------------------------------------

#: the currently installed injector, or None (the default, zero-cost path)
_ACTIVE: Optional[FaultInjector] = None
_install_lock = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The installed :class:`FaultInjector`, or None when faults are off."""
    return _ACTIVE


@contextlib.contextmanager
def install_fault_plan(plan) -> Iterator[FaultInjector]:
    """Activate a :class:`FaultPlan` (or ready injector) for a ``with`` scope.

    Installation is process-global — the hook points live in the device and
    executor layers, below any per-sweep state — and exclusive: nesting a
    second plan raises rather than silently replacing the first schedule.
    """
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    global _ACTIVE
    with _install_lock:
        if _ACTIVE is not None:
            raise ConfigurationError(
                "a fault plan is already installed; fault injection does "
                "not nest"
            )
        _ACTIVE = injector
    try:
        yield injector
    finally:
        with _install_lock:
            _ACTIVE = None
