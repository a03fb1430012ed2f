"""Command-line interface: ``python -m repro`` / ``repro-experiments``.

Subcommands
-----------
``list``
    List the available experiments (one per paper table/figure) and GPUs.
``run <ids...>``
    Run one or more experiments (or ``all``) and print their reports.
``info``
    Show the simulated hardware and backend registry.
``workloads``
    List the registered science workloads with their parameter schemas.
``bench <workload>``
    Run one workload through the unified Workload API and print (or export
    as JSON/markdown) its uniform result.  Results are memoised by their
    frozen request in the on-disk result cache (``.repro_cache/`` by
    default), so repeating an identical invocation is near-free;
    ``--no-cache`` bypasses it and ``--executor`` selects the
    functional-simulator mode.
``sweep <workload>``
    Run a parameter sweep (``--param L=16,32,64`` axes) through
    ``Sweep.run_workload``: ``--checkpoint``/``--resume`` journal finished
    requests so a resumed sweep serves them and re-runs only the failed
    ones, ``--on-error skip`` records a failure and carries on, and
    ``--inject`` installs a deterministic fault plan for chaos runs (it
    bypasses the result cache, in ``bench`` too).
``tune <workload>``
    Search the workload's launch space (block shapes, work-group sizes,
    fast-math) for one request and persist the winner in the tuning
    database (``.repro_tune/`` by default).  Candidates are pruned by the
    occupancy/roofline models before measurement; a repeated invocation is
    a database hit and runs no search.  ``bench --tuned`` then applies the
    stored winner.
``report``
    Regenerate experiment reports as one markdown document (the
    ``EXPERIMENTS.md`` the result modules reference), followed by the
    tuned-vs-untuned portability section (``--no-tuning`` skips it) and the
    graph compiler's modelled rewrite of each workload's lint capture
    (``--no-graphopt`` skips it).  Every number in it is modelled or
    counted, none is read off the host clock, so ``report --write
    EXPERIMENTS.md`` reproduces the committed file byte for byte.
``lint``
    Static analysis over the kernel registry and the workload device
    graphs: the AST kernel verifier (vector-safety inference, barrier
    divergence, shared-memory races, unguarded indexing) plus the
    happens-before stream race detector on each workload's
    ``lint_graph()`` capture.  ``repro lint --all --json`` is the CI
    gate; exit 1 means at least one error-severity diagnostic.
``trace <workload>``
    Run one workload with the tracing collector installed and export a
    Chrome/Perfetto ``trace.json``: nested host spans (wall *and*
    modelled durations) over the per-stream modelled device timelines,
    plus the process-wide metrics snapshot.  Load the file in
    https://ui.perfetto.dev or ``chrome://tracing``.  Without ``--json``
    it prints the observability summary: fired counters, the run-latency
    histogram and each span's host wall time beside its modelled time.
    ``bench --trace PATH`` offers the same export for a full bench
    invocation.
``bench-compare``
    Guard the host-execution microbenchmarks against performance
    regressions: compare a pytest-benchmark export (running the benchmarks
    when none is supplied) against ``benchmarks/baseline.json`` and fail on
    any regression beyond the threshold.  ``--quick`` restricts the run to
    the fast executor/dispatch subset for the tier-1 pre-merge flow; the
    report ends with the compile/result cache hit counters.

Dispatch
--------
One command table, :data:`COMMANDS`, holds each subcommand's name, help
line, argument builder and handler; ``build_parser`` and ``main`` both
read it.  ``main`` calls ``build_parser`` on every invocation; it returns
one parser, built on the first call and memoised in the ``cli_parser``
memo, so a warm invocation does not rebuild argparse.  A ``ReproError``
from any handler prints ``<command>: <message>`` on stderr and exits 2.

This module imports no subsystem at its top: each handler imports what
its command runs when it is dispatched, so ``import repro.cli`` loads
neither NumPy nor any kernel, and ``bench stencil`` imports the stencil
workload alone (:mod:`repro.workloads` imports a workload's module on its
first lookup).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
from typing import Callable, List, NamedTuple, Optional

from . import __version__
from .core.errors import ConfigurationError, ReproError
from .core.memo import Memo

__all__ = ["main", "build_parser", "accepts_option", "COMMANDS", "Command"]


def _add_workload_target(p, *, precision: bool = True) -> None:
    """The workload positional plus ``--gpu``/``--backend``/``--precision``."""
    p.add_argument("workload", help="registered workload name "
                                    "(see 'workloads')")
    p.add_argument("--gpu", default="h100", help="simulated GPU (default h100)")
    p.add_argument("--backend", default="mojo",
                   help="backend/toolchain (default mojo)")
    if precision:
        p.add_argument("--precision", default=None,
                       help="float32/float64 (default: the workload's)")


def _add_executor(p) -> None:
    """``--executor``, choosing from :data:`repro.workloads.EXECUTOR_MODES`."""
    from .workloads.base import EXECUTOR_MODES

    p.add_argument("--executor", default="auto", choices=EXECUTOR_MODES,
                   help="functional-simulator mode for verification "
                        "launches (default auto: NumPy codegen where the "
                        "kernel body allows, as for every shipped kernel, "
                        "else lockstep vectorized or scalar; vectorized: "
                        "never lower; lowered is an accepted alias of auto)")


def _lint_args(p) -> None:
    p.add_argument("workloads", nargs="*", default=[],
                   help="workload names whose lint graphs to race-check "
                        "(kernel verification always covers the whole "
                        "registry)")
    p.add_argument("--all", action="store_true", dest="lint_all",
                   help="lint every registered workload graph (the "
                        "default when no workload is named; spelled out "
                        "for the CI gate)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.add_argument("--no-graphs", action="store_true",
                   help="verify kernels only, skip the graph race check")
    p.add_argument("--explain", default=None, metavar="RULE",
                   help="print the documentation block of one rule id "
                        "(e.g. KV103, GR204) and exit; exit 2 when the "
                        "rule is unknown")
    p.add_argument("--max-warnings", type=int, default=None, metavar="N",
                   help="fail (exit 1) when the report carries more "
                        "than N warning-severity diagnostics — errors "
                        "always fail regardless")


def _cmd_lint(args) -> int:
    """``repro lint``: kernel verifier + graph race detector, one report.

    Exit 0 when clean (warnings allowed), 1 on any error-severity
    diagnostic — that asymmetry is the CI contract: warnings surface in
    the report without blocking a merge.  ``--max-warnings N`` tightens
    it: more than N warnings also fail.  ``--explain RULE`` prints one
    rule's documentation block (sourced from the analysis module
    docstrings) and exits without linting anything.
    """
    from .analysis import run_lint

    if args.explain is not None:
        from .analysis.rules import rule_doc

        doc = rule_doc(args.explain)
        if doc is None:
            print(f"lint: unknown rule {args.explain!r} (see 'repro lint "
                  f"--all --json' for the catalog)", file=sys.stderr)
            return 2
        print(f"{args.explain.strip().upper()}")
        print(doc)
        return 0

    names = None if (args.lint_all or not args.workloads) else args.workloads
    report = run_lint(names, graphs=not args.no_graphs)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    if not report.ok:
        return 1
    if args.max_warnings is not None:
        warnings = sum(1 for d in report.diagnostics
                       if d.severity == "warning")
        if warnings > args.max_warnings:
            print(f"lint: {warnings} warning(s) exceed --max-warnings "
                  f"{args.max_warnings}", file=sys.stderr)
            return 1
    return 0


def _graph_args(p) -> None:
    p.add_argument("workload", nargs="?", default=None,
                   help="registered workload name (see 'workloads')")
    p.add_argument("--all", action="store_true", dest="graph_all",
                   help="optimize every registered workload's graph")
    p.add_argument("--passes", default="all", metavar="PASSES",
                   help="pass pipeline: 'all' (default), 'none', or a "
                        "comma-separated subset of elide,fuse")
    p.add_argument("--json", action="store_true",
                   help="emit the per-workload reports as JSON")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="also write the JSON payload to PATH")


def _cmd_graph(args) -> int:
    """``repro graph``: run the pass pipeline and show what it did.

    Exit 0 when every optimized graph race-checks clean (the
    graph-compiler contract), 1 otherwise, 2 on configuration errors —
    matching the lint/bench exit conventions.
    """
    from .graphopt import graph_entry, parse_passes
    from .workloads import list_workloads

    if args.graph_all and args.workload:
        raise ConfigurationError("name one workload or pass --all, not both")
    if not args.graph_all and not args.workload:
        raise ConfigurationError("name a workload or pass --all")
    passes = parse_passes(args.passes)          # validates pass names early
    names = list(list_workloads()) if args.graph_all else [args.workload]

    entries = [graph_entry(name, args.passes) for name in names]
    all_clean = all(entry.get("lint_clean", True) for entry in entries)

    payload = {"schema": "repro.graphopt-report/v1",
               "passes": list(passes), "graphs": entries}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0 if all_clean else 1

    for entry in entries:
        if entry.get("graph") is None:
            print(f"{entry['workload']}: {entry['note']}")
            continue
        print(f"{entry['graph']} -> {entry['optimized']} "
              f"(passes: {', '.join(entry['passes']) or 'none'})")
        print(f"  ops {entry['ops_before']} -> {entry['ops_after']}, "
              f"kernels {entry['kernels_before']} -> "
              f"{entry['kernels_after']}, modelled makespan "
              f"{entry['makespan_before_ms']:.4f} -> "
              f"{entry['makespan_after_ms']:.4f} ms")
        for group in entry["fused"]:
            print(f"  fused: {' + '.join(group['parts'])} -> "
                  f"{group['name']}")
        for victim in entry["elided"]:
            print(f"  elided: {victim['kind']} {victim['name']!r} "
                  f"({victim['action']})")
        for low in entry["lowering"]:
            status = ("lowered to NumPy" if low["lowered"]
                      else f"not lowered ({low['reason']})")
            print(f"  {low['kernel']}: {status}")
        print(f"  optimized graph lint: "
              f"{'clean' if entry['lint_clean'] else 'ERRORS'}")
    if args.output:
        print(f"wrote JSON report to {args.output}")
    return 0 if all_clean else 1


def _cmd_list(args) -> int:
    from .backends import list_backends
    from .experiments import EXPERIMENTS, list_experiments
    from .gpu.specs import list_gpus

    print("experiments:")
    for key in list_experiments():
        print(f"  {key:8s} {EXPERIMENTS[key].DESCRIPTION}")
    print("\ngpus:     " + ", ".join(list_gpus()))
    print("backends: " + ", ".join(list_backends()))
    return 0


def _cmd_info(args) -> int:
    from .backends import get_backend, list_backends
    from .gpu.specs import get_gpu, list_gpus

    print("Simulated GPUs (paper Table 1):")
    for name in list_gpus():
        spec = get_gpu(name)
        print(f"  {name:8s} {spec.full_name}: {spec.mem_bw_gbs:.0f} GB/s, "
              f"{spec.fp32_tflops} FP32 / {spec.fp64_tflops} FP64 TFLOP/s, "
              f"{spec.sm_count} SMs")
    print("\nBackends:")
    for name in list_backends():
        be = get_backend(name)
        print(f"  {name:8s} {be.display_name}: vendors={be.supported_vendors}, "
              f"fast-math={'yes' if be.fast_math_available else 'no'}, "
              f"portable={'yes' if be.portable else 'no'}")
    return 0


def accepts_option(fn, name: str) -> bool:
    """True when *fn* can receive keyword argument *name*.

    Inspects the signature rather than ``fn.__code__.co_varnames`` so
    wrapped functions (``functools.wraps``) and ``**kwargs``-taking runners
    are detected correctly.
    """
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins without introspectable sigs
        return False
    if name in parameters:
        kind = parameters[name].kind
        return kind not in (inspect.Parameter.VAR_POSITIONAL,
                            inspect.Parameter.POSITIONAL_ONLY)
    return any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in parameters.values())


def _run_args(p) -> None:
    p.add_argument("ids", nargs="+",
                   help="experiment ids (fig2..fig7, table2..table5) or 'all'")
    p.add_argument("--full", action="store_true",
                   help="run the full (non-quick) parameter sweeps")
    p.add_argument("--verify", action="store_true",
                   help="also run functional verification on the simulator")
    p.add_argument("--markdown", action="store_true",
                   help="emit markdown instead of plain text")


def _experiment_ids(ids: List[str]) -> List[str]:
    """Registry ids for *ids*: every experiment when empty or ``all`` is
    given, otherwise each id matched case-insensitively.  Raises before
    anything runs when an id is unknown."""
    from .experiments import EXPERIMENTS, list_experiments

    if not ids or any(i.lower() == "all" for i in ids):
        return list_experiments()
    unknown = [i for i in ids if i.lower() not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s) {unknown}; available: "
            f"{', '.join(list_experiments())}")
    return [i.lower() for i in ids]


def _cmd_run(args) -> int:
    from .experiments import EXPERIMENTS, run_experiment
    from .experiments.driver import result_scope

    status = 0
    with result_scope():
        for experiment_id in _experiment_ids(args.ids):
            options = {"quick": not args.full}
            if args.verify and accepts_option(EXPERIMENTS[experiment_id].run,
                                              "verify"):
                options["verify"] = True
            result = run_experiment(experiment_id, **options)
            print(result.to_markdown() if args.markdown else result.to_text())
            print()
            if not result.all_passed:
                status = 1
    return status


def _workloads_args(p) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the schemas as JSON")


def _cmd_workloads(args) -> int:
    from .workloads import get_workload, list_workloads

    schemas = [get_workload(name).describe() for name in list_workloads()]
    if args.json:
        print(json.dumps(schemas, indent=2, default=str))
        return 0
    print("workloads:")
    for schema in schemas:
        print(f"  {schema['name']:12s} {schema['description']}")
        print(f"  {'':12s} primary metric: {schema['primary_metric']} "
              f"[{schema['primary_unit']}], precisions: "
              f"{'/'.join(schema['precisions'])}, "
              f"sampling: {schema['sampling']}")
        for param in schema["params"]:
            extra = ""
            if "choices" in param:
                extra = f" choices={param['choices']}"
            if "minimum" in param:
                extra += f" min={param['minimum']}"
            print(f"  {'':12s}   --param {param['name']}="
                  f"{param['default']} ({param['type']}){extra}  "
                  f"{param['description']}")
    return 0


def _parse_param_overrides(pairs: List[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--param expects K=V, got {pair!r}")
        params[key] = value
    return params


def _inject_scope(plan_path):
    """Context manager installing a fault plan from a JSON file (or a no-op)."""
    if plan_path is None:
        return contextlib.nullcontext()
    from .resilience import FaultPlan, install_fault_plan

    return install_fault_plan(FaultPlan.load(plan_path))


def _bench_args(p) -> None:
    _add_workload_target(p)
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="workload parameter override (repeatable)")
    p.add_argument("--repeats", type=int, default=5,
                   help="measurement repeats kept (default 5; ignored by "
                        "single-evaluation workloads — see 'workloads')")
    p.add_argument("--warmup", type=int, default=1,
                   help="warm-up runs discarded (default 1; same caveat "
                        "as --repeats)")
    p.add_argument("--fast-math", action="store_true",
                   help="enable the backend's fast-math lowering")
    p.add_argument("--no-verify", action="store_true",
                   help="skip functional verification")
    _add_executor(p)
    p.add_argument("--optimize", default="none", metavar="PASSES",
                   help="graph-compiler passes applied to captured device "
                        "graphs: 'none' (default), 'all', or a "
                        "comma-separated subset of elide,fuse")
    p.add_argument("--streams", type=int, default=1, metavar="N",
                   help="device streams for the verification pipeline "
                        "(default 1; N>1 gives transfers/compute their own "
                        "modelled timeline lanes so independent transfers "
                        "overlap — numerics are identical)")
    p.add_argument("--tuned", action="store_true",
                   help="apply the tuning database's remembered launch "
                        "configuration for this request (tune='cached'; "
                        "a database miss runs untuned — use the 'tune' "
                        "command to search and persist a winner first)")
    p.add_argument("--tune-dir", default=None, metavar="PATH",
                   help="tuning-database location consulted by --tuned "
                        "(default .repro_tune/)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the request-level result cache (use when "
                        "iterating on workload code: cached results — "
                        "including verification verdicts — assume the "
                        "code is unchanged within a release)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="on-disk result-cache location (default "
                        ".repro_cache/)")
    p.add_argument("--inject", default=None, metavar="PLAN.json",
                   help="install a deterministic fault plan (JSON: seed + "
                        "rules) for this invocation — chaos testing; see "
                        "the README's resilience section for the format "
                        "(bypasses the result cache: a faulted run must "
                        "neither read nor store a verdict)")
    p.add_argument("--trace", default=None, metavar="TRACE.json",
                   help="run under the tracing collector and write a "
                        "Chrome/Perfetto trace of this invocation to "
                        "PATH (bypasses the result cache: a cache hit "
                        "performs no device work worth tracing)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the uniform result schema as JSON")
    fmt.add_argument("--markdown", action="store_true",
                     help="emit a markdown table instead of plain text")


def _cmd_bench(args) -> int:
    from .harness.results import ResultTable
    from .harness.runner import MeasurementProtocol
    from .workloads import get_workload
    from .workloads.cache import DEFAULT_CACHE_DIR, ResultCache, run_cached

    if args.tune_dir and not args.tuned:
        raise ConfigurationError("--tune-dir only applies with --tuned")
    if args.tuned and args.tune_dir:
        from .tuning import configure_tuning_db

        configure_tuning_db(disk_dir=args.tune_dir)
    workload = get_workload(args.workload)
    request = workload.make_request(
        gpu=args.gpu, backend=args.backend, precision=args.precision,
        params=_parse_param_overrides(args.param),
        protocol=MeasurementProtocol(warmup=args.warmup,
                                     repeats=args.repeats),
        fast_math=args.fast_math, verify=not args.no_verify,
        executor=args.executor, streams=args.streams,
        tune="cached" if args.tuned else "off",
        optimize=args.optimize,
    )
    cache_note = "disabled (--no-cache)"
    with _inject_scope(args.inject):
        if args.trace:
            from .obs import (TraceCollector, install_trace_collector,
                              snapshot, write_chrome_trace)

            # A result-cache hit replays a stored payload without any
            # device activity, so tracing always runs the workload.
            collector = TraceCollector()
            with install_trace_collector(collector):
                result = workload.run(request)
            write_chrome_trace(args.trace, collector,
                               metrics_snapshot=snapshot())
            cache_note = "bypassed (--trace)"
        elif args.inject:
            # A faulted verdict must not reach the disk store, and a stored
            # clean one would hide the faults.
            result = workload.run(request)
            cache_note = "bypassed (--inject)"
        elif args.no_cache:
            result = workload.run(request)
        elif args.tuned:
            # Tuned results depend on the mutable tuning database, so the
            # request-level result cache never memoises them.
            result = workload.run(request)
            cache_note = "bypassed (tuned request)"
        else:
            # A disk-backed cache keyed by the frozen request makes repeated
            # identical bench invocations near-free across processes.  The
            # cache object is fresh per invocation, so the only possible
            # outcomes are a disk hit or a miss that populates the store.
            cache = ResultCache(disk_dir=args.cache_dir or DEFAULT_CACHE_DIR)
            result = run_cached(request, cache=cache, workload=workload)
            cache_note = ("hit (disk)" if cache.memo.cache_info().disk_hits
                          else "miss (stored)")

    table = ResultTable(columns=list(result.ROW_COLUMNS),
                        title=f"{workload.name} on {request.gpu} / "
                              f"{request.backend}")
    table.add_row(**result.to_row())

    if args.json:
        payload = result.as_dict()
        payload["table"] = table.as_dict()
        print(json.dumps(payload, indent=2, default=str))
    elif args.markdown:
        print(table.to_markdown())
    else:
        print(table.to_text())
        print()
        print("metrics:")
        for name, value in result.metrics.items():
            print(f"  {name}: {value:,.4g}")
        if workload.sampling == "single-evaluation":
            print("sampling: single model evaluation "
                  "(--repeats/--warmup do not apply)")
        v = result.verification
        if v.ran:
            err = ("-" if v.max_rel_error is None
                   else f"{v.max_rel_error:.3e}")
            status = "passed" if v.passed else f"FAILED ({v.detail})"
            print(f"verification: {status}, max rel error {err}")
        else:
            print("verification: skipped (--no-verify)")
        tuning = result.provenance.get("tuning")
        if tuning is not None:
            if tuning.get("applied"):
                knobs = {**tuning["config"]["params"],
                         **tuning["config"]["fields"]}
                applied = " ".join(f"{k}={v}" for k, v in knobs.items())
                print(f"tuning: applied {applied} "
                      f"({tuning['speedup']:.2f}x over untuned)")
            else:
                print(f"tuning: not applied ({tuning.get('reason', '?')}) — "
                      "run 'repro tune' to search and persist a winner")
        print(f"result cache: {cache_note}")
        if args.trace:
            print(f"trace: wrote {args.trace} "
                  "(load in https://ui.perfetto.dev or chrome://tracing)")
    return 0 if (not result.verification.ran
                 or result.verification.passed) else 1


def _parse_sweep_params(pairs: List[str]) -> dict:
    """``K=V1,V2,...`` pairs into sweep axes (singletons pin a parameter).

    Tuple-valued entries use ``x`` separators (``block_shape=512x1x1``) so
    the comma stays free to separate sweep values; they are rewritten to
    the comma form :meth:`ParamSpec.coerce` expects.
    """
    import re

    axes: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ConfigurationError(
                f"--param expects K=V1,V2,..., got {pair!r}")
        values: List[object] = []
        for item in value.split(","):
            item = item.strip()
            if re.fullmatch(r"\d+(x\d+)+", item):
                item = item.replace("x", ",")
            values.append(item)
        axes[key] = values
    return axes


def _sweep_args(p) -> None:
    _add_workload_target(p)
    p.add_argument("--param", action="append", default=[],
                   metavar="K=V1,V2,...",
                   help="sweep axis (repeatable): comma-separated values "
                        "form the cartesian product; a single value pins "
                        "the parameter; request fields (gpu, backend, "
                        "precision, executor, tune, ...) may be swept "
                        "too; tuple values use 'x' separators "
                        "(block_shape=512x1x1,8x4x4)")
    p.add_argument("--repeats", type=int, default=5,
                   help="measurement repeats kept (default 5)")
    p.add_argument("--warmup", type=int, default=1,
                   help="warm-up runs discarded (default 1)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip functional verification")
    _add_executor(p)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="thread-pool width (default 1: sequential)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the request-level result cache")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="on-disk result-cache location (default "
                        ".repro_cache/)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal every finished request to a JSON-lines "
                        "checkpoint file")
    p.add_argument("--resume", action="store_true",
                   help="replay an existing checkpoint: completed "
                        "requests are served from the journal, not "
                        "re-run (without --resume the file is truncated)")
    p.add_argument("--on-error", default="raise",
                   choices=["raise", "skip"],
                   help="failed-request handling: raise (default) or skip "
                        "(record a FailureRecord and continue; --resume "
                        "re-runs it)")
    p.add_argument("--inject", default=None, metavar="PLAN.json",
                   help="install a deterministic fault plan for the "
                        "whole sweep (chaos testing; bypasses the result "
                        "cache)")
    p.add_argument("--json", action="store_true",
                   help="emit results, failures and the sweep summary as "
                        "JSON")


def _cmd_sweep(args) -> int:
    from .harness.results import ResultTable
    from .harness.runner import MeasurementProtocol
    from .harness.sweep import sweep as make_sweep
    from .workloads import get_workload
    from .workloads.cache import DEFAULT_CACHE_DIR, ResultCache

    workload = get_workload(args.workload)
    axes = _parse_sweep_params(args.param)
    if not axes:
        raise ConfigurationError(
            "sweep needs at least one --param axis (K=V1,V2,...)")
    s = make_sweep(**axes)

    # A disk-backed cache local to this invocation, as in ``bench``: the
    # process-wide default cache is left as it was.
    cache = False if args.no_cache or args.inject else ResultCache(
        disk_dir=args.cache_dir or DEFAULT_CACHE_DIR)
    base = dict(
        gpu=args.gpu, backend=args.backend, precision=args.precision,
        verify=not args.no_verify, executor=args.executor,
        protocol=MeasurementProtocol(warmup=args.warmup,
                                     repeats=args.repeats),
    )
    # axes may sweep request fields; drop the fixed value for those keys
    for key in list(base):
        if key in axes:
            del base[key]
    journal = None
    if args.checkpoint:
        from .resilience import CheckpointJournal

        journal = CheckpointJournal(args.checkpoint, resume=args.resume)
    with _inject_scope(args.inject) as injector:
        results = s.run_workload(
            workload, workers=args.workers if args.workers > 1 else None,
            cache=cache, checkpoint=journal, on_error=args.on_error, **base)

    completed = [r for r in results if getattr(r, "ok", True)]
    failures = [r for r in results if not getattr(r, "ok", True)]
    resumed = journal.served if journal is not None else 0
    verify_failed = sum(1 for r in completed
                        if r.verification.ran and not r.verification.passed)
    summary = {
        "configurations": len(results),
        "completed": len(completed),
        "failures": len(failures),
        "resumed": resumed,
        "verification_failures": verify_failed,
    }
    if injector is not None:
        summary["faults"] = injector.stats()

    if args.json:
        print(json.dumps({
            "workload": workload.name,
            "summary": summary,
            "results": [r.as_dict() for r in completed],
            "failures": [f.as_dict() for f in failures],
        }, indent=2, default=str))
    else:
        if completed:
            table = ResultTable(columns=list(completed[0].ROW_COLUMNS),
                                title=f"{workload.name} sweep "
                                      f"({len(results)} configuration(s))")
            for r in completed:
                table.add_row(**r.to_row())
            print(table.to_text())
        for f in failures:
            print(f"FAILED {f.request.get('params')}: "
                  f"{f.error_type}: {f.message}")
        notes = [f"{len(completed)}/{len(results)} completed"]
        if resumed:
            notes.append(f"{resumed} resumed")
        if verify_failed:
            notes.append(f"{verify_failed} failed verification")
        if injector is not None:
            notes.append(f"{injector.stats()['total_fired']} fault(s) "
                         "injected")
        if args.checkpoint:
            notes.append(f"checkpoint {args.checkpoint}")
        print("sweep: " + ", ".join(notes))
    return 0 if not failures and not verify_failed else 1


def _tune_args(p) -> None:
    _add_workload_target(p)
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="workload parameter override (repeatable); "
                        "overrides of tuned knobs only seed the baseline")
    p.add_argument("--budget", type=int, default=16,
                   help="maximum measured configurations, baseline "
                        "included (default 16)")
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "exhaustive", "random"],
                   help="search strategy (default auto: exhaustive when "
                        "the pruned space fits the budget, seeded "
                        "random + hill-climb otherwise)")
    p.add_argument("--seed", type=int, default=2025,
                   help="RNG seed for the random strategy (default 2025)")
    p.add_argument("--no-prune", action="store_true",
                   help="skip the occupancy/roofline pruning pass and "
                        "consider every feasible candidate")
    p.add_argument("--force", action="store_true",
                   help="search even when the database already holds a "
                        "record for this problem")
    p.add_argument("--tune-dir", default=None, metavar="PATH",
                   help="tuning-database location (default .repro_tune/)")
    p.add_argument("--json", action="store_true",
                   help="emit the search outcome (or the database hit) "
                        "as JSON")


def _cmd_tune(args) -> int:
    from .tuning import DEFAULT_TUNE_DIR, Tuner, TuningDB
    from .workloads import get_workload

    workload = get_workload(args.workload)
    request = workload.make_request(
        gpu=args.gpu, backend=args.backend, precision=args.precision,
        params=_parse_param_overrides(args.param), verify=False,
    )
    space = workload.tuning_space(request)
    if space is None:
        print(f"tune: workload {workload.name!r} declares no tuning space",
              file=sys.stderr)
        return 2
    db = TuningDB(disk_dir=args.tune_dir or DEFAULT_TUNE_DIR)
    key = db.key_for(request, space)

    record = None if args.force else db.get(request, space)
    if record is not None:
        # Database hit: the problem is already tuned, no search runs.
        if args.json:
            print(json.dumps({"source": "db-hit", "key": key,
                              "record": record.as_dict()},
                             indent=2, default=str))
        else:
            print(f"tuning db: hit for {workload.name} on {request.gpu}/"
                  f"{request.backend} (key {key}) — no search")
            print(f"  best: {record.config.label()}")
            print(f"  measured {record.score_ms:.4g} ms vs untuned "
                  f"{record.baseline_ms:.4g} ms "
                  f"({record.speedup:.2f}x speedup)")
            print(f"  found by {record.strategy} search, budget "
                  f"{record.budget}, {record.measured} measured of "
                  f"{record.space_size} candidates ({record.pruned} pruned)")
        return 0

    outcome = Tuner(workload, request, space=space, db=db,
                    budget=args.budget, strategy=args.strategy,
                    seed=args.seed, prune=not args.no_prune).search()
    if outcome.record is None:
        print("tune: no candidate survived measurement", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"source": "search", "key": outcome.db_key,
                          **outcome.as_dict()}, indent=2, default=str))
        return 0
    report = outcome.prune
    print(f"tuned {workload.name} on {request.gpu}/{request.backend} "
          f"[{request.precision}]")
    print(f"  space: {report.space_size} candidates, {len(report.pruned)} "
          f"pruned by the occupancy/roofline models "
          f"({100 * report.pruned_fraction:.0f}%)")
    print(f"  search: {outcome.strategy}, budget {outcome.budget}, "
          f"{len(outcome.evaluations)} measured")
    print(f"  best: {outcome.best.config.label()}")
    print(f"  measured {outcome.best.measured_ms:.4g} ms vs untuned "
          f"{outcome.baseline.measured_ms:.4g} ms "
          f"({outcome.speedup:.2f}x speedup)")
    print(f"  stored as {outcome.db_key} in "
          f"{args.tune_dir or DEFAULT_TUNE_DIR}")
    print("\n  modelled vs measured ranking:")
    print(f"  {'config':42s} {'modelled ms':>12s} {'measured ms':>12s} "
          f"{'source':>8s}")
    for e in outcome.ranking():
        modelled = f"{e.modelled_ms:.5f}" if e.modelled_ms != float("inf") \
            else "-"
        measured = f"{e.measured_ms:.5f}" if e.ok else "failed"
        print(f"  {e.config.label():42s} {modelled:>12s} {measured:>12s} "
              f"{e.source:>8s}")
    return 0


def _report_args(p) -> None:
    p.add_argument("ids", nargs="*", default=[],
                   help="experiment ids (default: all)")
    p.add_argument("--write", default=None, metavar="PATH",
                   help="write the document to PATH (e.g. EXPERIMENTS.md) "
                        "instead of stdout")
    p.add_argument("--full", action="store_true",
                   help="run the full (non-quick) parameter sweeps")
    p.add_argument("--no-tuning", action="store_true",
                   help="skip the tuned-vs-untuned portability section")
    p.add_argument("--no-graphopt", action="store_true",
                   help="skip the graph-compiler rewrite section")


def _cmd_report(args) -> int:
    from .experiments import run_experiment
    from .experiments.driver import result_scope

    full, write = args.full, args.write
    wanted = _experiment_ids(args.ids)
    with result_scope():
        results = [run_experiment(i, quick=not full) for i in wanted]

    lines = [
        "# EXPERIMENTS",
        "",
        "Regenerated reports for the paper's tables and figures, produced",
        "on the simulated substrate from the unified result schema.",
        "Regenerate with `python -m repro report --write EXPERIMENTS.md`",
        f"(repro {__version__}, {'full' if full else 'quick'} sweeps).",
        "",
        "| experiment | description | comparisons | status |",
        "|---|---|---|---|",
    ]
    for result in results:
        status = "pass" if result.all_passed else "MISMATCH"
        lines.append(f"| {result.experiment_id} | {result.description} | "
                     f"{len(result.comparisons)} | {status} |")
    for result in results:
        lines.append("")
        lines.append(result.to_markdown())
    if not args.no_tuning:
        from .tuning.report import tuning_report

        lines.append("")
        lines.append(tuning_report().to_markdown())
    if not args.no_graphopt:
        from .graphopt import graph_entry, graphopt_markdown
        from .workloads import list_workloads

        lines.append("")
        lines.append(graphopt_markdown(
            [graph_entry(name, "all") for name in list_workloads()]))
    document = "\n".join(lines) + "\n"

    if write:
        with open(write, "w", encoding="utf-8") as fh:
            fh.write(document)
        print(f"wrote {len(results)} experiment report(s) to {write}")
    else:
        print(document)
    return 0 if all(r.all_passed for r in results) else 1


#: pytest ``-k`` expression selecting the fast benchmark subset for
#: ``bench-compare --quick`` (the executor/dispatch/graph-launch
#: microbenchmarks — the paths substrate changes regress first — while the
#: multi-second reference benches stay out of the tier-1 flow)
QUICK_BENCH_EXPR = ("executor or dispatch or vectorized or graph or tuned "
                    "or lint or fused or lowered or region or trace "
                    "or launch")


def _trace_args(p) -> None:
    _add_workload_target(p, precision=False)
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="workload parameter override (repeatable)")
    _add_executor(p)
    p.add_argument("--optimize", default="none", metavar="PASSES",
                   help="graph-compiler passes applied to captured "
                        "device graphs ('none', 'all', or a subset of "
                        "elide,fuse) — optimized replays appear "
                        "as expanded graph slices on the timeline")
    p.add_argument("--streams", type=int, default=1, metavar="N",
                   help="device streams (default 1); each stream is "
                        "its own timeline lane in the trace")
    p.add_argument("--no-verify", action="store_true",
                   help="skip functional verification")
    p.add_argument("--output", default=None, metavar="TRACE.json",
                   help="write the Chrome trace to PATH (load in "
                        "https://ui.perfetto.dev or chrome://tracing)")
    p.add_argument("--json", action="store_true",
                   help="print the Chrome trace JSON to stdout instead "
                        "of the observability summary")


def _cmd_trace(args) -> int:
    from .harness.runner import MeasurementProtocol
    from .obs import (TraceCollector, build_chrome_trace,
                      install_trace_collector, observability_markdown,
                      snapshot, write_chrome_trace)
    from .workloads import get_workload

    workload = get_workload(args.workload)
    request = workload.make_request(
        gpu=args.gpu, backend=args.backend,
        params=_parse_param_overrides(args.param),
        protocol=MeasurementProtocol(warmup=0, repeats=1),
        verify=not args.no_verify, executor=args.executor,
        streams=args.streams, optimize=args.optimize,
    )
    collector = TraceCollector()
    with install_trace_collector(collector):
        result = workload.run(request)
        if args.optimize != "none":
            # Put the graph-compiled pipeline on the timeline too: the
            # workload's capture/replay probe goes through the requested
            # pass pipeline, and its replay expands into per-operation
            # graph slices on the device tracks.
            probe = workload.tuning_probe(request)
            if probe is not None:
                probe.replay()
    metrics = snapshot()
    if args.output:
        trace = write_chrome_trace(args.output, collector,
                                   metrics_snapshot=metrics)
    else:
        trace = build_chrome_trace(collector, metrics_snapshot=metrics)
    if args.json:
        print(json.dumps(trace, indent=1))
    else:
        events = trace["traceEvents"]
        tracks = {(e["pid"], e.get("tid", 0)) for e in events
                  if e.get("ph") != "M"}
        print(f"{workload.name} on {request.gpu}/{request.backend}: "
              f"{len(collector.spans)} host span(s), "
              f"{len(collector.contexts)} device context(s), "
              f"{len(events)} trace event(s) on {len(tracks)} track(s)")
        print("\n".join(observability_markdown(collector, metrics)))
        if args.output:
            print(f"wrote Chrome trace to {args.output} "
                  "(load in https://ui.perfetto.dev or chrome://tracing)")
    return 0 if (not result.verification.ran
                 or result.verification.passed) else 1


def _run_host_benchmarks(bench_file: str, *, quick: bool = False,
                         cache_stats_path: Optional[str] = None) -> str:
    """Run the host-execution benchmarks, returning the JSON export path.

    ``cache_stats_path`` is forwarded to the benchmark subprocess (via
    ``REPRO_CACHE_STATS_PATH``), which dumps its memo counters there at
    session end — see ``benchmarks/conftest.py``.
    """
    import os
    import subprocess
    import tempfile

    out = tempfile.NamedTemporaryFile(prefix="repro-bench-", suffix=".json",
                                      delete=False)
    out.close()
    cmd = [sys.executable, "-m", "pytest", bench_file, "-q",
           "--benchmark-json", out.name]
    if quick:
        cmd += ["-k", QUICK_BENCH_EXPR]
    env = dict(os.environ)
    if cache_stats_path:
        env["REPRO_CACHE_STATS_PATH"] = cache_stats_path
    proc = subprocess.run(cmd, env=env)
    if proc.returncode != 0:
        print(f"benchmark run failed (exit {proc.returncode}): {' '.join(cmd)}",
              file=sys.stderr)
        raise SystemExit(proc.returncode or 1)
    return out.name


def _print_cache_counters(stats: Optional[dict] = None,
                          origin: str = "this process") -> None:
    """Report every memo's counters.

    *stats* is the ``{"memo": memo_infos()}`` payload exported by the
    benchmark subprocess; without it the current process's memos are
    reported (meaningful when the caller itself exercised them).
    """
    if stats is None:
        from .core.memo import memo_infos

        stats = {"memo": memo_infos()}
    for name, info in stats.get("memo", {}).items():
        print(f"memo {name} ({origin}): {info['hits']} hit(s), "
              f"{info['misses']} miss(es), {info['entries']} entries, "
              f"{info['bytes']} bytes, {info['disk_hits']} disk hit(s)")


def _bench_compare_args(p) -> None:
    p.add_argument("--baseline", default=None,
                   help="baseline JSON (default benchmarks/baseline.json)")
    p.add_argument("--current", default=None,
                   help="existing pytest-benchmark JSON export to check; "
                        "omitted: run the benchmarks now")
    p.add_argument("--threshold", type=float, default=None,
                   help="failure factor (default 2.0: fail when a "
                        "benchmark is more than 2x slower)")
    p.add_argument("--update", action="store_true",
                   help="write the measured stats as the new baseline "
                        "instead of failing on regressions")
    p.add_argument("--quick", action="store_true",
                   help="run only the fast benchmark subset (the "
                        "executor/dispatch microbenchmarks) — suitable "
                        "for the tier-1 pre-merge flow; baseline "
                        "entries not exercised are reported as "
                        "'missing' without failing")


def _cmd_bench_compare(args) -> int:
    import os
    import tempfile

    from .harness import benchcheck

    if args.update and args.quick:
        # --update rewrites the whole baseline file; a quick-subset run
        # would silently drop the reference-benchmark entries from it.
        raise ConfigurationError(
            "--update requires the full benchmark run; drop --quick")

    baseline_path = args.baseline or benchcheck.DEFAULT_BASELINE_PATH
    threshold = (args.threshold if args.threshold is not None
                 else benchcheck.DEFAULT_THRESHOLD)
    cache_stats = None
    cache_origin = "this process"
    if args.current is None:
        stats_file = tempfile.NamedTemporaryFile(prefix="repro-cache-stats-",
                                                 suffix=".json", delete=False)
        stats_file.close()
        current_path = _run_host_benchmarks(benchcheck.DEFAULT_BENCH_FILE,
                                            quick=args.quick,
                                            cache_stats_path=stats_file.name)
        try:
            current_stats = benchcheck.load_stats(current_path)
            try:
                with open(stats_file.name, "r", encoding="utf-8") as fh:
                    cache_stats = json.load(fh)
                cache_origin = "benchmark run"
            except (OSError, json.JSONDecodeError):
                cache_stats = None
        finally:
            for path in (current_path, stats_file.name):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
    else:
        current_stats = benchcheck.load_stats(args.current)

    if args.update:
        benchcheck.write_baseline(baseline_path, current_stats)
        print(f"wrote {len(current_stats)} benchmark baselines to {baseline_path}")
        return 0

    baseline_stats = benchcheck.load_stats(baseline_path)
    rows = benchcheck.compare_benchmarks(baseline_stats, current_stats,
                                         threshold=threshold)
    subset = " (--quick subset)" if args.quick else ""
    print(f"bench-compare against {baseline_path} "
          f"(threshold {threshold:g}x){subset}:")
    for row in rows:
        print(row.to_text())
    _print_cache_counters(cache_stats, cache_origin)
    failures = [r for r in rows if r.regressed]
    if failures:
        print(f"{len(failures)} benchmark(s) regressed more than "
              f"{threshold:g}x", file=sys.stderr)
        return 1
    return 0


class Command(NamedTuple):
    """One subcommand: its name, its ``--help`` line, the function that
    adds its arguments and its handler (parsed args -> exit code)."""

    name: str
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


def _no_arguments(p) -> None:
    """The argument builder of a command that takes none."""


#: every subcommand, in ``--help`` order
COMMANDS = {c.name: c for c in (
    Command("list", "list available experiments", _no_arguments, _cmd_list),
    Command("run", "run experiments and print their reports", _run_args,
            _cmd_run),
    Command("info", "show simulated GPUs and backends", _no_arguments,
            _cmd_info),
    Command("workloads", "list registered workloads and their parameter "
            "schemas", _workloads_args, _cmd_workloads),
    Command("bench", "run one workload through the unified Workload API",
            _bench_args, _cmd_bench),
    Command("sweep", "run a workload over a cartesian parameter sweep, with "
            "optional checkpointing and fault injection",
            _sweep_args, _cmd_sweep),
    Command("tune", "search a workload's launch space and persist the "
            "winner", _tune_args, _cmd_tune),
    Command("report", "render experiment reports as one markdown document",
            _report_args, _cmd_report),
    Command("lint", "statically verify kernels and race-check workload "
            "graphs", _lint_args, _cmd_lint),
    Command("graph", "run the graph compiler over a workload's captured "
            "device graph and report what the passes did", _graph_args,
            _cmd_graph),
    Command("trace", "run one workload under the tracing collector and "
            "export a Chrome/Perfetto timeline", _trace_args, _cmd_trace),
    Command("bench-compare", "compare host-execution benchmarks against the "
            "stored baseline", _bench_compare_args, _cmd_bench_compare),
)}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser, one subparser per entry of :data:`COMMANDS`.

    Built on the first call and memoised in :data:`PARSER_MEMO`; ``main``
    calls it on every invocation.
    """
    return PARSER_MEMO.get_or_compute("all", _new_parser)


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the Mojo GPU science-"
                    "kernels paper on the simulated substrate.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command in COMMANDS.values():
        command.add_arguments(sub.add_parser(command.name, help=command.help))
    return parser


#: the parser ``main`` uses, built once per process
PARSER_MEMO = Memo("cli_parser")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command or "list"]
    try:
        return command.handler(args)
    except ReproError as exc:
        # exit 2 is the config-error contract; exit 1 is reserved for a
        # failed check (a VerificationError inside a workload is already
        # folded into its result by Workload.run)
        print(f"{command.name}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
