"""Intentionally broken kernel bodies, one per verifier rule.

Each function below violates exactly one static-analysis rule, so the
tests can assert that the verifier fires *that* rule and nothing else.
They are plain functions (not ``@kernel``-decorated) so importing this
module never pollutes the kernel registry that ``repro lint`` walks —
the tests wrap them in bare :class:`~repro.core.kernel.Kernel` objects,
which do not register.

The verifier reads source via :func:`inspect.getsource`, so these bodies
must live in a real file — defining them inline in a REPL or ``-c``
string would put the verifier on its unanalyzable (source-less) path
instead of exercising the rules.
"""

from repro.core.dtypes import DType
from repro.core.intrinsics import (
    barrier,
    block_dim,
    block_idx,
    shared_array,
    thread_idx,
)


def divergent_barrier(out):
    """KV101: barrier under a lane-dependent guard deadlocks real warps."""
    i = thread_idx.x
    if i < 2:
        barrier()
    out[0] = 1.0


def shared_memory_race(out, n):
    """KV102: reads a neighbour's shared slot with no barrier between."""
    tid = thread_idx.x
    s = shared_array(32, DType.float64, key="s")
    s[tid] = float(tid)
    v = s[tid + 1]
    if tid < n:
        out[tid] = v


def unguarded_oob(a, c, n):
    """KV103: raw global index into a parameter tensor, no bounds guard."""
    i = block_idx.x * block_dim.x + thread_idx.x
    c[i] = a[i] * 2.0


def loop_carried_lane_index(a, c, n):
    """KV103: a raw lane index reaches the accesses around a loop."""
    x = 0
    y = 0
    for k in range(2):
        y = x
        x = thread_idx.x + block_idx.x * block_dim.x
    c[y] = a[y]


def simt_unsafe_print(a, n):
    """KV104: ``print`` has no per-lane semantics in the SIMT model."""
    i = thread_idx.x
    if i < n:
        print(i)
        a[i] = 1.0


def data_dependent_while(a, n):
    """KV105: lane-dependent ``while`` — per-lane trip counts diverge."""
    i = thread_idx.x
    while i < n:
        a[i] = 1.0
        i += 32


def lying_flag(a, n):
    """Refuted for lockstep execution: the body is lane-guarded.

    The body itself is clean (the guard exempts the index from KV103), but
    a lane-dependent ``if`` around the store means lockstep execution
    would run both sides — the verifier refutes lockstep safety.
    """
    i = thread_idx.x
    if i < n:
        a[i] = 1.0


def guarded_clean(a, c, n):
    """Clean control: guard exempts the index, no rule may fire."""
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        c[i] = a[i] * 2.0
