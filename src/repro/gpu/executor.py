"""Functional execution of device kernels on the simulated GPU.

The executor runs a :class:`~repro.core.kernel.Kernel` over a grid of blocks
and threads, exactly as a GPU would schedule it logically (every thread sees
its own ``thread_idx`` / ``block_idx``).  Four execution modes exist:

``vectorized``
    Lockstep array-level execution (:mod:`repro.gpu.vector_executor`) for
    kernels the static verifier proves lockstep-safe
    (:func:`kernel_vector_safe`): ``thread_idx`` / ``block_idx`` resolve
    to NumPy index arrays and each statement of the body executes for an
    entire lane set at once — the whole grid (chunked) for barrier-free
    kernels, one block per lane set for kernels with barriers / shared
    memory.  Divergence is expressed through the lane helpers
    (``any_lane`` / ``compress_lanes`` / ``lane_where`` / ``masked_store``)
    and atomics take their ``np.add.at``-backed lane-vector form.  The
    default for proven kernels whose body does not lower.

``sequential``
    Threads of a block run one after another in a plain Python loop.  Correct
    for any kernel that does not rely on intra-block synchronisation
    (``barrier``) for data exchange through shared memory.  One mutable
    :class:`~repro.core.intrinsics.ThreadState` is reused for every simulated
    thread (only ``thread_idx`` / ``block_idx`` are rebound), so the per-thread
    overhead is a single kernel-body call.

``cooperative``
    A pool of ``threads_per_block`` OS worker threads is spawned once per
    launch and processes *all* blocks of the grid, synchronised by one
    reusable :class:`threading.Barrier` (an extra barrier wait at the end of
    each block keeps the pool in lockstep across block boundaries).  Required
    for kernels that communicate through shared memory across barriers but
    are *not* vector-safe.

``lowered``
    Dispatch through NumPy code generated by the graph compiler's lowering
    tier (:mod:`repro.graphopt.lower`): the vector-safe body is rewritten at
    the AST level into whole-array slicing (lane-affine accesses) or
    straight-line NumPy over per-lane index arrays, with uniform loops
    evaluated as array axes and barrier bodies run for every block at once,
    compiled once per (kernel, launch, argument-signature) specialisation.
    The entry returns its barrier and atomic counts and shared bytes per
    block; results, counters and exceptions match ``vectorized``.

Mode selection is codegen-first and reads one verdict, the static
verifier's (:attr:`Kernel.verdict <repro.core.kernel.Kernel.verdict>`, kept
on the kernel after the first resolution; a ``strict=True`` kernel with
error diagnostics is refused there in every mode): ``mode="auto"`` (the default) tries the lowering tier for
every launch of a proven kernel and runs ``vectorized`` when the body falls
outside the lowerable subset; any other kernel runs ``cooperative`` when
:func:`kernel_uses_barrier` detects barriers / shared memory and
``sequential`` otherwise.  ``mode="lowered"`` is accepted and resolves
exactly like ``auto``.  An explicit ``mode="vectorized"`` never lowers and
falls back to the appropriate scalar mode for unproven kernels (vector
safety is a property of the kernel body, not of the request);
``mode="sequential"`` / ``mode="cooperative"`` force the scalar engines.
:meth:`KernelExecutor.instantiate` is the one place a launch is
validated, limited and resolved; it returns a run thunk, and
:meth:`KernelExecutor.launch` is one timed run of that thunk, whose
:class:`ExecutionResult` reports the mode that actually ran.

Bounds checks follow one fact, the region analysis's
(:attr:`repro.analysis.regions.ArgRegion.in_bounds`): the interpreter modes
run on private unchecked views of the tensor arguments it proves in bounds
under the launch (:func:`_unchecked_views`), and the lowering tier emits no
check for them; every other tensor access is checked.

Execution-mode / performance envelope
-------------------------------------
The functional simulator exists to check *correctness* of per-thread kernel
code.  The scalar modes execute one Python call per simulated thread —
roughly a few hundred thousand threads per second in sequential mode and far
less in cooperative mode.  The vectorized mode amortises the interpreter
over a whole lane set per statement, which moves launches of structured
kernels by one to two orders of magnitude (the executor-stencil benchmark in
``benchmarks/test_host_execution.py`` records both modes against
``benchmarks/baseline.json``).  Choose the cheapest tool that answers the
question:

* **Lowered / vectorized functional simulation** (default for the four
  science kernels, all of whose kernels lower) —
  per-thread semantics with array-level throughput; fine up to
  ~10^6-thread grids in tests.
* **Scalar functional simulation** (``sequential`` / ``cooperative``) —
  bit-accurate one-thread-at-a-time oracle; use for small grids and for
  kernels whose control flow cannot be expressed lane-generically.
* **Vectorized references** (``repro.kernels.*.reference``) — NumPy-evaluated
  whole-problem numerics (e.g. the batched ERI engine); use to validate
  results at realistic problem sizes.
* **Timing model** (:mod:`repro.gpu.timing` via the backends) — predicted
  device durations for the paper's figures and tables; no functional
  execution at all, so problem size is irrelevant.

Events are counted on one :class:`ExecutionCounters` per launch, without a
lock: the sequential, vectorized (whole lane sets per event) and lowered
engines count into it directly, and each cooperative worker counts into
its own, merged after the workers join.  The counters are identical across
all four modes for the same launch.  Kernel *durations* come from the
analytic model in :mod:`repro.gpu.timing`, not from Python wall-clock.
"""

from __future__ import annotations

import ast
import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import LaunchError, ReproError
from ..core.intrinsics import Dim3, ThreadState, bind_thread_state
from ..core.kernel import Kernel, LaunchConfig, as_kernel
from ..core.layout import LayoutTensor
from ..resilience import faults as _faults
from .vector_executor import kernel_vector_safe, run_vectorized

__all__ = ["ExecutionCounters", "ExecutionResult", "KernelExecutor",
           "kernel_uses_barrier", "kernel_vector_safe"]


class ExecutionCounters:
    """Event counts of one launch, or of one cooperative worker's share.

    Plain integer increments: the sequential, vectorized and lowered
    engines count straight into the launch's counters, and each
    cooperative worker counts into its own, merged after the workers join.
    """

    __slots__ = ("threads_run", "blocks_run", "barriers", "atomics")

    def __init__(self):
        self.threads_run = 0
        self.blocks_run = 0
        self.barriers = 0
        self.atomics = 0

    def record_barrier(self, n: int = 1) -> None:
        self.barriers += n

    def record_atomic(self, n: int = 1) -> None:
        self.atomics += n

    def merge(self, threads_run: int = 0, blocks_run: int = 0,
              barriers: int = 0, atomics: int = 0) -> None:
        """Fold a batch of event counts in."""
        self.threads_run += threads_run
        self.blocks_run += blocks_run
        self.barriers += barriers
        self.atomics += atomics

    def as_dict(self) -> Dict[str, int]:
        return {
            "threads_run": self.threads_run,
            "blocks_run": self.blocks_run,
            "barriers": self.barriers,
            "atomics": self.atomics,
        }


@dataclass
class ExecutionResult:
    """Outcome of one functional launch."""

    kernel_name: str
    launch: LaunchConfig
    mode: str
    counters: ExecutionCounters
    wall_time_s: float
    shared_bytes_per_block: int = 0

    @property
    def threads_run(self) -> int:
        return self.counters.threads_run

    @property
    def blocks_run(self) -> int:
        return self.counters.blocks_run


def _iter_dim3(extent: Dim3):
    """Iterate all (x, y, z) indices of an extent, x fastest."""
    for z in range(extent.z):
        for y in range(extent.y):
            for x in range(extent.x):
                yield Dim3(x, y, z)


def kernel_uses_barrier(kern: Kernel) -> bool:
    """Does the kernel body call ``barrier`` or allocate shared memory?

    Decided on the parsed body the static analyses share
    (:func:`repro.analysis.kernel_ir.kernel_ir`): a call anywhere in the
    body to one of ``SIMT_MODEL``'s barrier calls or shared allocators.
    Docstrings and comments do not count; unknown source does (cooperative
    is the safe mode).  A fused kernel (:mod:`repro.graphopt.passes`) takes
    the fact from its parts.  Cached on the underlying function object.
    """
    fn = kern.fn if isinstance(kern, Kernel) else kern
    cached = getattr(fn, "_repro_uses_barrier", None)
    if cached is not None:
        return cached
    from ..analysis.kernel_ir import BLOCK_CALLS, callee, kernel_ir

    parts = getattr(fn, "_repro_fused_parts", None)
    if parts is not None:
        uses = any(kernel_uses_barrier(part) for part, _ in parts)
    else:
        ir = kernel_ir(fn)
        uses = ir is None or any(  # unknown source: cooperative
            isinstance(node, ast.Call) and callee(node) in BLOCK_CALLS
            for node in ast.walk(ir.fndef))
    try:
        fn._repro_uses_barrier = uses
    except (AttributeError, TypeError):  # pragma: no cover - exotic callables
        pass
    return uses


def _resolve_mode(kern: Kernel, args: Sequence, launch: LaunchConfig,
                  mode: str) -> Tuple[str, Optional[Callable]]:
    """The mode a launch runs in, plus its compiled entry when it lowers.

    Every mode first reads the kernel's verdict (:attr:`Kernel.verdict
    <repro.core.kernel.Kernel.verdict>`): a ``strict=True`` kernel with
    error diagnostics raises :class:`~repro.core.errors.AnalysisError`
    here, so it never runs.  Then one rule for ``auto``, ``lowered`` and
    ``vectorized``: a kernel the static verifier proves lockstep-safe
    lowers, or runs ``vectorized`` when that is requested or lowering
    declines; any other kernel runs ``cooperative`` or ``sequential``.
    """
    vector_safe, strict_errors = kern.verdict
    if strict_errors:
        raise kern.strict_error()
    if mode in ("sequential", "cooperative"):
        return mode, None
    if mode not in ("auto", "lowered", "vectorized"):
        raise LaunchError(f"unknown execution mode {mode!r}")
    if not vector_safe:
        return ("cooperative" if kernel_uses_barrier(kern)
                else "sequential"), None
    if mode == "vectorized":
        return mode, None
    # Lazy import: graphopt's legality queries consume this module.
    from ..graphopt.lower import lower_launch

    entry = lower_launch(kern, args, launch)
    return ("vectorized", None) if entry is None else ("lowered", entry)


def _unchecked_views(kern: Kernel, args: Sequence,
                     launch: LaunchConfig) -> Sequence:
    """*args* with an unchecked view of each tensor the region analysis
    proves in bounds under *launch*: what the interpreter modes run on."""
    from ..analysis.regions import concretize_launch

    lr = concretize_launch(kern, args, launch)
    proven = lr.in_bounds if lr is not None else ()
    if not proven:
        return args
    return tuple(a._unchecked() if i in proven and isinstance(a, LayoutTensor)
                 else a for i, a in enumerate(args))


def _enter_launch(name: str) -> None:
    """The ``launch`` fault site every launch reaches first, eager or
    replayed."""
    injector = _faults._ACTIVE
    if injector is not None:
        injector.fail_launch("launch", name)


def _run_lowered(entry: Callable, name: str, args: Sequence):
    """Run a lowered entry behind the ``launch.lowered`` fault site; returns
    its ``(barriers, atomics, shared bytes per block)``."""
    injector = _faults._ACTIVE
    if injector is not None:
        injector.fail_launch("launch.lowered", name)
    return entry(*args)


class KernelExecutor:
    """Runs kernels functionally over a simulated grid."""

    #: refuse functional launches larger than this many total threads
    #: (the functional simulator is for correctness, not for 2^25-element runs)
    MAX_TOTAL_THREADS = 8_000_000

    def __init__(self, *, max_total_threads: Optional[int] = None):
        self.max_total_threads = max_total_threads or self.MAX_TOTAL_THREADS

    # ------------------------------------------------------------------ API
    def launch(
        self,
        kern: Kernel,
        args: Sequence,
        launch: LaunchConfig,
        *,
        mode: str = "auto",
    ) -> ExecutionResult:
        """Execute *kern* over the grid described by *launch*: one timed
        run, with fresh counters, of the thunk :meth:`instantiate` returns.

        Parameters
        ----------
        kern:
            The kernel (or plain callable) to run per thread.
        args:
            Positional arguments forwarded to every thread invocation.
        launch:
            Grid/block extents.
        mode:
            ``"auto"`` (default; ``"lowered"`` is the same request),
            ``"vectorized"``, ``"sequential"`` or ``"cooperative"`` —
            resolved as described in the module docstring.  The returned
            result reports the mode that ran.
        """
        kern = as_kernel(kern)
        run = self.instantiate(kern, args, launch, mode=mode)
        counters = ExecutionCounters()
        start = time.perf_counter()
        shared = run(counters)
        wall = time.perf_counter() - start
        return ExecutionResult(
            kernel_name=kern.name,
            launch=launch,
            mode=run.mode,
            counters=counters,
            wall_time_s=wall,
            shared_bytes_per_block=shared,
        )

    def instantiate(self, kern: Kernel, args: Sequence, launch: LaunchConfig,
                    *, mode: str = "auto") -> Callable[..., int]:
        """Check and resolve a launch once; return its run thunk.

        The functional-simulator analogue of graph instantiation, and the
        one place a launch is checked: kernel wrapping, launch validation,
        the thread limit, execution-mode resolution (including lowering)
        and the unchecked views of proven tensors are paid here.  The
        returned ``run(counters=None)`` only performs the kernel's
        functional work: it reaches the ``launch`` fault site, then its
        engine's, counts the launch's events into *counters* (or into
        throwaway ones) and returns the peak shared bytes per block;
        ``run.mode`` is the mode it runs.  :meth:`launch` is one timed run
        of it, and :meth:`repro.core.device.DeviceGraph.replay` runs the
        one each captured kernel was instantiated into.
        """
        kern = as_kernel(kern)
        launch.validate()
        total = launch.total_threads
        if total > self.max_total_threads:
            raise LaunchError(
                f"functional launch of {total} threads exceeds the simulator "
                f"limit of {self.max_total_threads}; use the vectorized "
                "reference implementation / timing model for large problems"
            )
        mode, entry = _resolve_mode(kern, args, launch, mode)
        name = kern.name
        if entry is not None:
            def engine(counters: ExecutionCounters) -> int:
                barriers, atomics, shared = _run_lowered(entry, name, args)
                # the entry counts the barrier and atomic events the lane
                # interpreter would record, so the counters match it exactly
                counters.merge(total, launch.num_blocks, barriers, atomics)
                return shared
        else:
            args = _unchecked_views(kern, args, launch)
            if mode == "vectorized":
                engine = functools.partial(run_vectorized, kern, args, launch,
                                           per_block=kernel_uses_barrier(kern))
            elif mode == "sequential":
                engine = functools.partial(self._run_sequential, kern, args,
                                           launch)
            else:
                engine = functools.partial(self._run_cooperative, kern, args,
                                           launch)

        def run(counters: Optional[ExecutionCounters] = None) -> int:
            _enter_launch(name)
            return engine(ExecutionCounters() if counters is None
                          else counters)

        run.mode = mode
        return run

    # ----------------------------------------------------------- sequential
    def _run_sequential(self, kern, args, launch, counters) -> int:
        fn = kern.fn
        blocks = tuple(_iter_dim3(launch.grid_dim))
        threads = tuple(_iter_dim3(launch.block_dim))
        max_shared = 0
        # One mutable ThreadState reused for every simulated thread: only the
        # indices and the per-thread shared-allocation cursor are rebound.
        state = ThreadState(
            thread_idx=threads[0],
            block_idx=blocks[0],
            block_dim=launch.block_dim,
            grid_dim=launch.grid_dim,
            block_shared={},
            block_barrier=None,
            counters=counters,
        )
        with bind_thread_state(state):
            for block in blocks:
                block_shared: Dict[str, "np.ndarray"] = {}
                state.block_idx = block
                state.block_shared = block_shared
                counters.blocks_run += 1
                for thread in threads:
                    state.thread_idx = thread
                    state._shared_seq = 0
                    fn(*args)
                counters.threads_run += len(threads)
                shared = _shared_bytes(block_shared)
                if shared > max_shared:
                    max_shared = shared
        return max_shared

    # ---------------------------------------------------------- cooperative
    def _run_cooperative(self, kern, args, launch, counters) -> int:
        fn = kern.fn
        nthreads = launch.threads_per_block
        blocks = tuple(_iter_dim3(launch.grid_dim))
        threads = tuple(_iter_dim3(launch.block_dim))
        barrier = threading.Barrier(nthreads)
        block_shared_dicts = [dict() for _ in blocks]
        errors: List[Tuple[BaseException, Dim3]] = []
        err_lock = threading.Lock()
        max_shared = [0]
        # one set of counters per worker, merged once the workers join
        tallies = [ExecutionCounters() for _ in threads]

        def worker(wid: int, thread: Dim3, tally: ExecutionCounters):
            state = ThreadState(
                thread_idx=thread,
                block_idx=blocks[0],
                block_dim=launch.block_dim,
                grid_dim=launch.grid_dim,
                block_shared=block_shared_dicts[0],
                block_barrier=barrier,
                counters=tally,
            )
            try:
                with bind_thread_state(state):
                    for bi, block in enumerate(blocks):
                        state.block_idx = block
                        state.block_shared = block_shared_dicts[bi]
                        state._shared_seq = 0
                        fn(*args)
                        tally.threads_run += 1
                        # Lockstep across the block boundary: without this
                        # wait a fast worker could enter block bi+1 and its
                        # kernel-internal barriers would pair with slow
                        # workers still inside block bi.
                        barrier.wait()
                        if wid == 0:
                            tally.blocks_run += 1
                            shared = _shared_bytes(block_shared_dicts[bi])
                            if shared > max_shared[0]:
                                max_shared[0] = shared
                            block_shared_dicts[bi].clear()
            except threading.BrokenBarrierError:
                pass  # another worker failed; shut down quietly
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                with err_lock:
                    errors.append((exc, state.block_idx))
                barrier.abort()

        workers = [threading.Thread(target=worker, args=(w, t, c), daemon=True)
                   for w, (t, c) in enumerate(zip(threads, tallies))]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        for tally in tallies:
            counters.merge(**tally.as_dict())
        if errors:
            exc, block = errors[0]
            if isinstance(exc, ReproError):
                # The kernel's own error (e.g. a LayoutError), as the other
                # modes raise it.
                raise exc
            raise LaunchError(
                f"kernel {kern.name!r} raised in block {block}: {exc!r}"
            ) from exc
        return max_shared[0]


def _shared_bytes(block_shared: Dict) -> int:
    total = 0
    for arr in block_shared.values():
        total += getattr(arr, "nbytes", 0)
    return int(total)
