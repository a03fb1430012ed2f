"""Static analysis over kernel ASTs and device graphs (``repro lint``).

The paper's central argument is that a compiler which *understands* the
kernel — its layout, parallelism and synchronisation structure — can prove
properties before anything runs.  This package is that layer for the
simulated substrate:

:mod:`~repro.analysis.kernel_ir`
    The kernel front end: parses each ``@kernel`` body once and runs one
    abstract interpretation of it (a taint in ``UNIFORM`` / ``GUARDED`` /
    ``LANE`` times a symbolic value), recording accesses, guard masks,
    ``compress_lanes`` clamps, barriers and lane-dependent control flow.
    The verifier, the region analysis and the lowering tier all read this
    one IR, so they agree on what a guard means.

:mod:`~repro.analysis.verifier`
    Reads the IR against a model of the SIMT intrinsic surface
    (``thread_idx`` / ``barrier`` / ``shared_array`` / the lane helpers /
    atomics).  It *proves* whether a body is safe for lockstep (vectorized
    or lowered) execution — the one verdict the executor and the fuse pass
    dispatch on — and reports barrier divergence, shared-memory races
    between barriers, unguarded lane-dependent tensor indexing and
    non-SIMT-safe Python constructs.

:mod:`~repro.analysis.racecheck`
    A happens-before analysis over enqueued device operations (a captured
    :class:`~repro.core.device.DeviceGraph` or a raw op list): conflicting
    buffer accesses on different streams with no event edge, use-after-free
    and dead (written-never-read) transfers — the modelled-GPU analogue of
    compute-sanitizer's racecheck.

:mod:`~repro.analysis.regions` / :mod:`~repro.analysis.symexpr`
    Symbolic access-region analysis: per-buffer-parameter read/write
    regions, read off the IR as affine interval expressions in the launch
    intrinsics, concretizable against an actual launch and buffer shapes.
    Feeds region-precision race verdicts (``GR201`` suppression, ``GR204``
    partial overlaps), proven out-of-bounds findings (``KV106``) and KV103
    discharge, cover-set fusion legality for the graph compiler, and exact
    byte traffic for the tuning roofline.

:mod:`~repro.analysis.lint`
    Orchestration for the ``repro lint`` CLI and the CI gate: verify every
    registered kernel, capture each workload's lint graph and run it
    through the race detector, and render the findings as text or JSON.

:mod:`~repro.analysis.rules`
    The rule catalog: every ``KVxxx`` / ``GRxxx`` id with its doc block,
    parsed from the analysis module docstrings (``repro lint --explain``).

Analysis runs at a kernel's first launch resolution (an eager launch,
``instantiate`` or the close of a ``ctx.capture``), which verifies its body
once (memoised per function) and keeps the verdict on the kernel — never
again on the hot launch / replay path.  That verdict also holds a
``@kernel(strict=True)`` kernel's error diagnostics, which stop it there,
before any lane runs; decoration verifies nothing.  Graph race checks run at
capture time (``ctx.capture(check=True)``), and ``repro lint`` runs
everything.

The names below resolve on first access (:mod:`repro._lazy`), so the launch
path's verifier import does not load the region analysis or the race
detector.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("Diagnostic", "LintReport", "Severity"),
    ".lint": ("discharge_proven", "lint_graphs", "lint_kernels", "run_lint",
              "shipped_kernels"),
    ".racecheck": ("analyze_graph", "analyze_ops"),
    ".regions": ("LaunchRegions", "RegionSummary", "TensorSpec",
                 "bounds_diagnostics", "concretize_launch", "covers",
                 "kernel_regions", "launch_traffic", "region_conflict"),
    ".rules": ("rule_catalog", "rule_doc"),
    ".symexpr": ("Interval", "launch_env"),
    ".verifier": ("VerifierResult", "lint_kernel", "verify_kernel"),
})

__all__ = [
    "Diagnostic",
    "Interval",
    "LaunchRegions",
    "LintReport",
    "RegionSummary",
    "Severity",
    "TensorSpec",
    "VerifierResult",
    "analyze_graph",
    "analyze_ops",
    "bounds_diagnostics",
    "concretize_launch",
    "covers",
    "discharge_proven",
    "kernel_regions",
    "launch_env",
    "launch_traffic",
    "lint_graphs",
    "lint_kernel",
    "lint_kernels",
    "region_conflict",
    "rule_catalog",
    "rule_doc",
    "run_lint",
    "shipped_kernels",
    "verify_kernel",
]
