"""The unified workload abstraction: one request/result schema for every kernel.

The paper's portability story is that the *same* four science kernels run
unchanged across GPUs and backends.  This module gives the reproduction the
API to match: a :class:`Workload` base class (name, description, declared
parameter schema, ``reference()``/``run()``), a frozen
:class:`RunRequest` naming one configuration (workload, gpu, backend,
precision, params, measurement protocol, fast-math), and a uniform
:class:`WorkloadResult` (metrics dict, verification outcome, timing
breakdowns, per-repeat samples, provenance) that every workload returns.

Anything that can build a :class:`RunRequest` — the CLI ``bench`` command,
:meth:`repro.harness.sweep.Sweep.run_workload`, the figure experiments — can
therefore drive any registered workload without knowing its kernel-specific
surface.  Adding workload #5 means implementing this protocol and calling
:func:`repro.workloads.registry.register_workload`; no CLI or harness change.

A workload declares only what differs per kernel: its verification
program, its primary kernel (:meth:`Workload.tuning_model`) and the figures
of merit of that kernel's priced run.  :meth:`Workload.run` resolves the
gpu and backend, verifies, prices the primary kernel once, reads the
``counter_*`` metrics off that same run and assembles the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.errors import ConfigurationError, VerificationError
from ..harness.runner import MeasurementProtocol
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "ParamSpec",
    "RunRequest",
    "Verification",
    "NOT_VERIFIED",
    "WorkloadResult",
    "Workload",
    "DEFAULT_PROTOCOL",
    "EXECUTOR_MODES",
    "MAX_STREAMS",
    "TUNE_MODES",
]

#: measurement protocol used when a request does not specify one
DEFAULT_PROTOCOL = MeasurementProtocol(warmup=1, repeats=5)

#: functional-simulator execution modes a request may select; ``"auto"``
#: (the default) compiles each vector-safe launch to NumPy code
#: (:mod:`repro.graphopt.lower`; every shipped kernel lowers), runs the
#: lockstep vectorized engine when a body cannot be lowered, and keeps the
#: scalar modes for everything else; ``"lowered"`` is accepted and means
#: the same as ``"auto"``; ``"vectorized"`` pins the lockstep engine
EXECUTOR_MODES = ("auto", "vectorized", "sequential", "cooperative",
                  "lowered")

#: upper bound on the per-request device-stream count (a real queue would
#: accept more, but beyond this the simulated pipelines gain nothing)
MAX_STREAMS = 64

#: how a request interacts with the autotuning subsystem: ``"off"`` runs the
#: request exactly as given, ``"cached"`` applies a remembered winner from
#: the tuning database when one exists (a miss runs untuned), ``"search"``
#: additionally runs a budgeted search on a miss and persists the result
TUNE_MODES = ("off", "cached", "search")


@dataclass(frozen=True)
class ParamSpec:
    """One declared workload parameter: type, default, validation."""

    name: str
    type: type
    default: object
    description: str = ""
    #: allowed values (None: unconstrained)
    choices: Optional[Tuple[object, ...]] = None
    #: inclusive lower bound for numeric parameters (None: unconstrained);
    #: applies element-wise to tuple parameters
    minimum: Optional[float] = None
    #: required element count for tuple parameters (None: unconstrained)
    length: Optional[int] = None

    def coerce(self, value: object) -> object:
        """Coerce and validate *value*; raises :class:`ConfigurationError`."""
        try:
            if self.type is bool and isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    value = True
                elif lowered in ("0", "false", "no", "off"):
                    value = False
                else:
                    raise ValueError(f"not a boolean: {value!r}")
            elif self.type is tuple:
                if isinstance(value, str):
                    parts = value.replace("(", "").replace(")", "").split(",")
                    value = tuple(int(p) for p in parts if p.strip())
                else:
                    elements = []
                    for v in value:
                        if isinstance(v, float) and v != int(v):
                            raise ValueError(f"not an integer: {v!r}")
                        elements.append(int(v))
                    value = tuple(elements)
            elif not isinstance(value, self.type):
                if self.type is int and isinstance(value, float) \
                        and value != int(value):
                    raise ValueError(f"not an integer: {value!r}")
                value = self.type(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {value!r} ({exc})"
            ) from None
        if self.type is tuple and self.length is not None \
                and len(value) != self.length:
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.length} "
                f"comma-separated values, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, "
                f"got {value!r}"
            )
        if self.minimum is not None:
            # for tuple parameters the bound applies element-wise
            below = (any(v < self.minimum for v in value)
                     if self.type is tuple else value < self.minimum)
            if below:
                raise ConfigurationError(
                    f"parameter {self.name!r} must be >= {self.minimum}, "
                    f"got {value!r}"
                )
        return value

    def describe(self) -> Dict[str, object]:
        """JSON-friendly schema entry for the CLI and docs."""
        info: Dict[str, object] = {
            "name": self.name,
            "type": self.type.__name__,
            "default": self.default,
            "description": self.description,
        }
        if self.choices is not None:
            info["choices"] = list(self.choices)
        if self.minimum is not None:
            info["minimum"] = self.minimum
        if self.length is not None:
            info["length"] = self.length
        return info


@dataclass(frozen=True)
class RunRequest:
    """One fully-specified workload configuration.

    Frozen so a request can be stored, replayed, compared and put in result
    provenance without defensive copying.  ``params`` holds the
    workload-specific sizes/shapes (validated against the workload's
    :class:`ParamSpec` schema); everything portable across workloads — GPU,
    backend, precision, measurement protocol, fast-math — is a first-class
    field.
    """

    workload: str
    gpu: str = "h100"
    backend: str = "mojo"
    precision: str = "float64"
    params: Mapping[str, object] = field(default_factory=dict)
    protocol: MeasurementProtocol = DEFAULT_PROTOCOL
    fast_math: bool = False
    verify: bool = True
    #: functional-simulator mode for verification launches (see
    #: :data:`EXECUTOR_MODES`); ``"auto"`` lowers each launch to NumPy code
    #: first and falls back to lockstep, then scalar, execution
    executor: str = "auto"
    #: device streams the verification pipeline uses (``1``: everything on
    #: the default stream; more overlap the modelled H2D/compute/D2H lanes)
    streams: int = 1
    #: autotuning mode (see :data:`TUNE_MODES`); anything but ``"off"``
    #: lets the workload rewrite the launch knobs from the tuning database
    #: before running
    tune: str = "off"
    #: graph-compiler passes applied to captured device graphs before they
    #: replay: ``"none"`` (the default) replays the capture as recorded,
    #: ``"all"`` runs the full :mod:`repro.graphopt` pipeline, or a
    #: comma-separated subset of :data:`repro.graphopt.PASS_NAMES`
    #: (``"elide"``, ``"fuse"``, ``"hoist"``)
    optimize: str = "none"

    def __post_init__(self):
        # Freeze the parameter mapping (the dataclass itself is frozen, but a
        # caller-supplied dict would still be mutable through the alias).
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))
        if self.executor not in EXECUTOR_MODES:
            raise ConfigurationError(
                f"unknown executor mode {self.executor!r}; expected one of "
                f"{EXECUTOR_MODES}"
            )
        if self.tune not in TUNE_MODES:
            raise ConfigurationError(
                f"unknown tune mode {self.tune!r}; expected one of "
                f"{TUNE_MODES}"
            )
        try:
            streams = int(self.streams)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"streams must be an integer >= 1, got {self.streams!r}"
            ) from None
        if isinstance(self.streams, float) and self.streams != streams:
            raise ConfigurationError(
                f"streams must be an integer >= 1, got {self.streams!r}"
            )
        if not 1 <= streams <= MAX_STREAMS:
            raise ConfigurationError(
                f"streams must be between 1 and {MAX_STREAMS}, "
                f"got {self.streams!r}"
            )
        object.__setattr__(self, "streams", streams)
        if self.optimize != "none":
            # Validates pass names and canonicalizes order ("fuse,elide"
            # and "elide,fuse" describe the same pipeline) so equal
            # pipelines hash/compare equal and share cache entries.
            from ..graphopt import parse_passes

            passes = parse_passes(self.optimize)
            object.__setattr__(
                self, "optimize", ",".join(passes) if passes else "none")

    def __hash__(self):
        # explicit hash: the generated one would choke on the params
        # mappingproxy.  Consistent with the generated __eq__ — equal params
        # mappings produce equal sorted item tuples.
        return hash((self.workload, self.gpu, self.backend, self.precision,
                     tuple(sorted(self.params.items())), self.protocol,
                     self.fast_math, self.verify, self.executor,
                     self.streams, self.tune, self.optimize))

    def replace(self, **changes) -> "RunRequest":
        """A copy of this request with the given fields replaced."""
        # __post_init__ re-wraps params on every construction, so the
        # carried-over mappingproxy round-trips through dataclasses.replace
        return replace(self, **changes)

    def with_params(self, **params) -> "RunRequest":
        """A copy of this request with ``params`` entries merged in."""
        merged = dict(self.params)
        merged.update(params)
        return self.replace(params=merged)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the request."""
        return {
            "workload": self.workload,
            "gpu": self.gpu,
            "backend": self.backend,
            "precision": self.precision,
            "params": dict(self.params),
            "protocol": {"warmup": self.protocol.warmup,
                         "repeats": self.protocol.repeats},
            "fast_math": self.fast_math,
            "verify": self.verify,
            "executor": self.executor,
            "streams": self.streams,
            "tune": self.tune,
            "optimize": self.optimize,
        }


@dataclass(frozen=True)
class Verification:
    """Outcome of a workload's functional verification."""

    ran: bool
    passed: bool
    #: maximum relative error against the reference (None when not run)
    max_rel_error: Optional[float] = None
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        err = self.max_rel_error
        if err is not None and not math.isfinite(err):
            err = None
        return {"ran": self.ran, "passed": self.passed,
                "max_rel_error": err, "detail": self.detail}


#: the verification of a run whose request asked for none
NOT_VERIFIED = Verification(ran=False, passed=False,
                            max_rel_error=float("nan"))


@dataclass
class WorkloadResult:
    """Uniform result of one workload run.

    ``metrics`` maps metric names to floats; ``primary_metric`` names the one
    the workload is judged by (bandwidth for the memory-bound kernels,
    GFLOP/s for miniBUDE, kernel time for Hartree–Fock).  ``timing`` maps a
    kernel label (``"kernel"`` for single-kernel workloads, the operation
    name for BabelStream) to its :class:`~repro.gpu.timing.TimingBreakdown`.
    """

    request: RunRequest
    metrics: Dict[str, float]
    primary_metric: str
    verification: Verification
    timing: Dict[str, object] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)

    @property
    def workload(self) -> str:
        return self.request.workload

    @property
    def primary_value(self) -> float:
        return self.metrics[self.primary_metric]

    def to_row(self) -> Dict[str, object]:
        """Flatten into a row for :class:`~repro.harness.results.ResultTable`."""
        params = " ".join(f"{k}={v}" for k, v in self.request.params.items())
        err = self.verification.max_rel_error
        return {
            "workload": self.workload,
            "gpu": self.request.gpu,
            "backend": self.request.backend,
            "precision": self.request.precision,
            "params": params,
            "metric": self.primary_metric,
            "value": self.primary_value,
            "verified": self.verification.ran and self.verification.passed,
            "max_rel_error": err if err is not None and math.isfinite(err)
                             else None,
        }

    #: the columns :meth:`to_row` produces, in render order
    ROW_COLUMNS = ("workload", "gpu", "backend", "precision", "params",
                   "metric", "value", "verified", "max_rel_error")

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly payload; identical schema for every workload.

        Non-finite metric/sample values become ``None`` so the export is
        strict JSON (``json.dumps`` would otherwise emit a bare ``NaN``).
        """
        def finite(value):
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        timing = {}
        for label, breakdown in self.timing.items():
            timing[label] = (breakdown.as_dict()
                             if hasattr(breakdown, "as_dict") else breakdown)
        return {
            "schema": "repro.workload-result/v1",
            "workload": self.workload,
            "request": self.request.as_dict(),
            "primary_metric": self.primary_metric,
            "metrics": {k: finite(v) for k, v in self.metrics.items()},
            "verification": self.verification.as_dict(),
            "timing": timing,
            "samples": {k: [finite(s) for s in v]
                        for k, v in self.samples.items()},
            "provenance": dict(self.provenance),
        }


class Workload:
    """Base class every science workload adapter implements.

    Subclasses define ``name``, ``description``, ``params`` (a tuple of
    :class:`ParamSpec`), the primary metric, and what differs per kernel:

    * :meth:`reference` — the host (NumPy) reference computation;
    * :meth:`tuning_model` — the request's primary kernel
      ``(model, launch)``, priced once per run;
    * :meth:`_verify` — the verification program: with ``request.verify``
      :meth:`_run` replays the kernel's device program
      (``repro.kernels.<kernel>.runner``), captured once per program key
      (:meth:`_replay_verification`), and reports the program's pipeline
      as the ``"verify_pipeline"`` timing entry;
    * :meth:`_figures` — the figures of merit of the priced kernel.

    :meth:`_run` does the rest the same way for every workload.
    """

    name: str = ""
    description: str = ""
    params: Tuple[ParamSpec, ...] = ()
    primary_metric: str = ""
    #: unit of the primary metric, for display
    primary_unit: str = ""
    #: precisions the kernel supports (miniBUDE is fp32-only, HF fp64-only)
    precisions: Tuple[str, ...] = ("float32", "float64")
    default_precision: str = "float64"
    #: how per-repeat samples are produced: "synthetic-jitter" honours the
    #: request protocol's repeat count; "single-evaluation" evaluates the
    #: analytic model once and collects no samples
    sampling: str = "synthetic-jitter"

    # ------------------------------------------------------------- parameters
    def param_schema(self) -> Dict[str, ParamSpec]:
        return {spec.name: spec for spec in self.params}

    def default_params(self) -> Dict[str, object]:
        return {spec.name: spec.default for spec in self.params}

    def validate_params(self, params: Optional[Mapping[str, object]] = None,
                        ) -> Dict[str, object]:
        """Apply defaults and validate; raises :class:`ConfigurationError`."""
        schema = self.param_schema()
        given = dict(params or {})
        unknown = set(given) - set(schema)
        if unknown:
            raise ConfigurationError(
                f"workload {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; known: {sorted(schema)}"
            )
        validated = {}
        for name, spec in schema.items():
            value = given.get(name, spec.default)
            validated[name] = spec.coerce(value)
        return validated

    def make_request(self, **kwargs) -> RunRequest:
        """Build a validated :class:`RunRequest` for this workload.

        ``precision=None`` (or omitting it) selects the workload's default —
        the kernels do not all support both floating-point widths.
        """
        params = self.validate_params(kwargs.pop("params", None))
        requested = kwargs.pop("workload", None)
        if requested not in (None, self.name):
            raise ConfigurationError(
                f"cannot build a request for workload {requested!r} via "
                f"{self.name!r}; use get_workload({requested!r})"
            )
        if kwargs.get("precision") is None:
            kwargs["precision"] = self.default_precision
        request = RunRequest(workload=self.name, params=params, **kwargs)
        self._check_precision(request.precision)
        return request

    def _check_precision(self, precision: str) -> None:
        if precision not in self.precisions:
            raise ConfigurationError(
                f"workload {self.name!r} supports precisions "
                f"{list(self.precisions)}, got {precision!r}"
            )

    def describe(self) -> Dict[str, object]:
        """JSON-friendly schema of the whole workload, for the CLI."""
        return {
            "name": self.name,
            "description": self.description,
            "primary_metric": self.primary_metric,
            "primary_unit": self.primary_unit,
            "precisions": list(self.precisions),
            "default_precision": self.default_precision,
            "sampling": self.sampling,
            "params": [spec.describe() for spec in self.params],
        }

    # ----------------------------------------------------------------- tuning
    def tuning_space(self, request: RunRequest):
        """The workload's :class:`~repro.tuning.space.TuningSpace`, or None.

        Adapters that expose launch knobs (block shapes, work-group sizes,
        fast-math) override this; returning None (the default) makes the
        workload opt out of autotuning — requests with ``tune != "off"``
        then run untuned, with the reason recorded in provenance.
        """
        return None

    def tuning_model(self, request: RunRequest):
        """``(KernelModel, LaunchConfig)`` of *request*'s primary kernel.

        The one declaration of the kernel a request is priced by:
        :meth:`_run` prices it once per run and reads the figures of merit
        and the ``counter_*`` metrics off that run; the occupancy/roofline
        pruner scores tuning candidates through it without compiling or
        running anything.  *request*'s parameters are already validated:
        the run path validates them once, the pruner and the tuner after
        applying a candidate.
        """
        raise ConfigurationError(
            f"workload {self.name!r} declares no tuning model"
        )

    def tuning_probe(self, request: RunRequest):
        """A captured :class:`~repro.core.device.DeviceGraph` probe, or None.

        When provided, the tuner functionally executes each measured
        candidate at a reduced problem size — capture once, then
        ``DeviceGraph.replay`` per repeat — so a winner is guaranteed to
        actually launch on the simulator, not just score well analytically.
        """
        return None

    def region_probe(self, request: RunRequest):
        """``(kernel, args)`` for symbolic traffic estimation, or None.

        *args* mirror a real launch argument list, with buffer arguments
        replaced by :class:`~repro.analysis.regions.TensorSpec` (shape +
        dtype — no allocation).  The candidate pruner concretizes the
        kernel's access regions against each candidate launch and feeds
        the exact bytes moved into the roofline estimate; returning None
        (the default) keeps the coarse per-thread byte model.
        """
        return None

    # ------------------------------------------------------------ graphopt
    @staticmethod
    def _maybe_optimize(graph, request: "RunRequest"):
        """Run the graph-compiler pipeline on *graph* when the request asks.

        ``request.optimize == "none"`` returns *graph* unchanged.  Anything
        else runs :func:`repro.graphopt.optimize_graph` with the requested
        pass subset and returns the rewritten graph; the optimization
        report is attached to the result graph (``_graphopt_report``) so
        adapters can surface it in provenance.  The optimized graph is
        re-linted by the pipeline itself (``check=True``), so an illegal
        transform fails loudly here rather than replaying wrong.
        """
        if graph is None or request.optimize == "none":
            return graph
        from ..graphopt import optimize_graph

        optimized, _report = optimize_graph(graph, request.optimize)
        return optimized

    # ------------------------------------------------------------------- lint
    def lint_graph(self):
        """A captured :class:`~repro.core.device.DeviceGraph` for ``repro lint``.

        The graph should be representative of the workload's real device
        pipeline (uploads, kernel launches, downloads, the stream/event
        edges between them) at a reduced problem size; the lint CLI runs it
        through the happens-before race detector
        (:func:`repro.analysis.racecheck.analyze_graph`).  The default
        reuses :meth:`tuning_probe` on a default request; returning None
        opts the workload out of graph linting (recorded as a note, not a
        failure).  New device operations a workload enqueues must declare
        their buffer read/write sets so this analysis stays sound.
        """
        return self.tuning_probe(self.make_request())

    # --------------------------------------------------------------- protocol
    def reference(self, **params):
        """Host reference computation (NumPy), for small problem sizes."""
        raise NotImplementedError

    def _run(self, request: RunRequest) -> WorkloadResult:
        """Verify *request*, price its kernel once and assemble the result.

        The primary kernel is :meth:`tuning_model`'s ``(model, launch)``,
        priced by one ``Backend.time``; its
        :class:`~repro.backends.base.BackendRun` feeds both
        :meth:`_figures` and the ``counter_*`` metrics, which follow the
        workload's own metrics.
        """
        from ..backends import get_backend
        from ..gpu.specs import get_gpu
        from .provenance import build_provenance

        verification, pipeline = NOT_VERIFIED, {}
        if request.verify:
            error, pipeline["verify_pipeline"] = self._verify(request)
            verification = Verification(ran=True, passed=True,
                                        max_rel_error=error)
        model, launch = self.tuning_model(request)
        run = get_backend(request.backend).time(
            model, get_gpu(request.gpu), launch, fast_math=request.fast_math)
        metrics, timing, samples = self._figures(request, run)
        metrics.update(_counter_metrics(run))
        return WorkloadResult(
            request=request,
            metrics=metrics,
            primary_metric=self.primary_metric,
            verification=verification,
            timing={**timing, **pipeline},
            samples=samples,
            provenance=build_provenance(request, sampling=self.sampling),
        )

    def _verify(self, request: RunRequest):
        """``(max_rel_error, pipeline)`` of *request*'s verification program.

        Replays the kernel's device program through
        :meth:`_replay_verification` and compares its downloads with the
        reference; a mismatch raises :class:`VerificationError`.
        """
        raise NotImplementedError

    def _figures(self, request: RunRequest, run):
        """``(metrics, timing, samples)`` of the priced primary kernel *run*.

        ``metrics`` and ``samples`` hold the workload's figures of merit in
        export order; ``timing`` maps each kernel label to its
        :class:`~repro.gpu.timing.TimingBreakdown`, *run*'s included.
        """
        raise NotImplementedError

    def _replay_verification(self, request: RunRequest, problem_key,
                             knobs: tuple, enqueue, **bindings):
        """Replay *request*'s verification program; ``(downloads, pipeline)``.

        ``enqueue(ctx)`` is captured once per program key — this workload,
        *problem_key*, the gpu, precision, executor (``"lowered"`` counts
        as ``"auto"``), stream count and the verify launch *knobs* — and
        replayed with *bindings* as H2D sources
        (:func:`repro.kernels.program.replay_program`).  A None
        *problem_key* captures a program for this run only.
        """
        from ..gpu.specs import get_gpu
        from ..kernels.program import replay_program

        spec = get_gpu(request.gpu)
        key = None
        if problem_key is not None:
            executor = ("auto" if request.executor == "lowered"
                        else request.executor)
            key = (self.name, problem_key, spec.name, request.precision,
                   executor, request.streams, knobs)
        return replay_program(key, spec, enqueue, **bindings)

    def run(self, request: RunRequest) -> WorkloadResult:
        """Validate *request* and execute it.

        A :class:`VerificationError` raised by the workload's checker is
        folded into the result (``verification.passed=False``) rather than
        propagated, so sweeps over many configurations always complete; the
        benchmark is re-run without verification so the folded result still
        has the full metric payload.

        When ``request.tune`` is ``"cached"`` or ``"search"`` the launch
        knobs are first rewritten from the tuning database (searching on a
        miss in ``"search"`` mode); the result's request reflects what
        actually ran and its provenance carries a ``"tuning"`` entry.

        Every run feeds the ``workload_run_latency_ms`` histogram of the
        process metrics registry; when a
        :class:`~repro.obs.trace.TraceCollector` is installed the run is
        additionally wrapped in a ``workload.run`` span (with nested
        ``tuning.resolve`` / ``graph.replay`` children)
        — the disabled path never touches the collector.
        """
        start_s = time.perf_counter()
        collector = _trace._ACTIVE
        if collector is None:
            result = self._run_validated(request)
        else:
            with collector.span("workload.run", workload=self.name,
                                backend=request.backend, gpu=request.gpu,
                                executor=request.executor) as sp:
                result = self._run_validated(request)
                sp.set_modelled(_modelled_result_ms(result))
        _metrics.observe("workload_run_latency_ms",
                         (time.perf_counter() - start_s) * 1e3,
                         workload=self.name)
        return result

    def _run_validated(self, request: RunRequest) -> WorkloadResult:
        if request.workload not in (self.name, ""):
            raise ConfigurationError(
                f"request for workload {request.workload!r} dispatched to "
                f"{self.name!r}"
            )
        self._check_precision(request.precision)
        request = request.replace(workload=self.name,
                                  params=self.validate_params(request.params))
        tuning_info = None
        if request.tune != "off":
            from ..tuning import resolve_tuning

            collector = _trace._ACTIVE
            if collector is None:
                request, tuning_info = resolve_tuning(self, request)
            else:
                with collector.span("tuning.resolve", workload=self.name,
                                    mode=request.tune) as sp:
                    request, tuning_info = resolve_tuning(self, request)
                    sp.annotate(source=tuning_info.get("source"),
                                applied=tuning_info.get("applied"))
            request = request.replace(
                params=self.validate_params(request.params))
        try:
            result = self._run(request)
        except VerificationError as exc:
            result = self._fold_verification_failure(request, exc)
        if tuning_info is not None:
            result.provenance["tuning"] = tuning_info
        return result

    def _fold_verification_failure(self, request: RunRequest,
                                   exc: VerificationError) -> WorkloadResult:
        # Re-run without verification so the folded result still carries
        # the workload's full metric/sample/timing payload — consumers
        # reading non-primary metrics must not crash on a verification
        # failure.
        result = self._run(request.replace(verify=False))
        result.request = request
        result.verification = Verification(
            ran=True, passed=False,
            max_rel_error=getattr(exc, "max_rel_error", None),
            detail=str(exc))
        return result


def _counter_metrics(run) -> Dict[str, float]:
    """The numeric profiling counters of *run* as ``counter_*`` metrics.

    The paper's NCU-table quantities
    (:class:`~repro.profiling.counters.CounterSet`) derive from the compiled
    kernel and the analytic timing model alone, so they are identical
    across executor modes.
    """
    from ..profiling.counters import collect_counters

    flat: Dict[str, float] = {}
    for key, value in collect_counters(run).as_dict().items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        flat[f"counter_{key}"] = float(value)
    return flat


def _modelled_result_ms(result: WorkloadResult) -> Optional[float]:
    """The modelled device time a result attributes to its run, if any."""
    value = result.metrics.get("kernel_time_ms")
    if isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    return None
