"""Kernel bodies exercising the symbolic region analysis, one per rule.

Like :mod:`broken_kernels`, these are plain functions the tests wrap in
bare :class:`~repro.core.kernel.Kernel` objects (no registry pollution),
living in a real file so :func:`inspect.getsource` works.

* :func:`oob_copy` fires exactly ``KV106`` under any launch whose lane
  count exceeds the buffer extent — the index is unguarded and
  endpoint-exact, so the escape is *proven*, not suspected.
* :func:`guarded_copy` is the canonical tail-guard idiom; regions prove
  it in-bounds under every launch, discharging its ``KV103``.
* :func:`tile_scale` touches exactly ``[lo, hi)`` of its buffer: two
  launches on different streams are provably disjoint (GR201 suppressed)
  or partially overlapping (GR204) purely by their scalar arguments.
* :func:`guarded_accumulate` reads ``a[i]`` once through an augmented
  assignment, so its read traffic is exactly one element per lane.
"""

from repro.core.intrinsics import any_lane, compress_lanes, global_idx


def oob_copy(a, c, n):
    """KV106: unguarded global index — a tail launch provably escapes."""
    i = global_idx().x
    c[i] = a[i]


def guarded_copy(a, c, n):
    """Clean under regions: the mask clamps every access below ``n``."""
    i = global_idx().x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    c[i] = a[i]


def tile_scale(buf, lo, hi):
    """Scales exactly the ``[lo, hi)`` tile of *buf* in place."""
    i = global_idx().x + lo
    m = i < hi
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    buf[i] = buf[i] * 2.0


def guarded_accumulate(a, out, n):
    """``s += a[i]`` reads each guarded element of *a* exactly once."""
    i = global_idx().x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    s = 0.0
    s += a[i]
    out[i] = s
