"""Device kernel for the seven-point Laplacian stencil (paper Listing 2).

The per-thread body is a direct transliteration of the Mojo kernel in the
paper: thread ``(x, y, z)`` maps to cell ``(k, j, i)`` and interior cells
combine the seven-point neighbourhood with precomputed inverse spacings.
The body is vector-safe: the interior guard is the canonical
``any_lane``/``compress_lanes`` pattern, so the lockstep executor evaluates
the whole grid as gathers and one scatter.
"""

from __future__ import annotations

from ...core.dtypes import DType, dtype_from_any
from ...core.intrinsics import any_lane, block_dim, block_idx, compress_lanes, thread_idx
from ...core.kernel import KernelModel, MemoryPattern, kernel

__all__ = ["laplacian_kernel", "stencil_kernel_model"]


@kernel(name="laplacian_kernel", strict=True)
def laplacian_kernel(f, u, nx, ny, nz, invhx2, invhy2, invhz2, invhxyz2):
    """Seven-point stencil: ``f = Laplacian(u)`` on interior cells.

    ``f`` and ``u`` are rank-3 :class:`~repro.core.layout.LayoutTensor` views
    of shape ``(nx, ny, nz)``; boundary cells of ``f`` are left untouched.
    """
    k = thread_idx.x + block_idx.x * block_dim.x
    j = thread_idx.y + block_idx.y * block_dim.y
    i = thread_idx.z + block_idx.z * block_dim.z

    interior = (i > 0) & (i < nx - 1) & (j > 0) & (j < ny - 1) \
        & (k > 0) & (k < nz - 1)
    if not any_lane(interior):
        return
    i, j, k = compress_lanes(interior, i, j, k)
    f[i, j, k] = (
        u[i, j, k] * invhxyz2
        + (u[i - 1, j, k] + u[i + 1, j, k]) * invhx2
        + (u[i, j - 1, k] + u[i, j + 1, k]) * invhy2
        + (u[i, j, k - 1] + u[i, j, k + 1]) * invhz2
    )


def stencil_kernel_model(*, L: int, precision: str = "float64",
                         active_fraction: float = None) -> KernelModel:
    """Analytic resource model of the stencil kernel for one problem size.

    Per interior cell the kernel performs 7 global loads, 1 global store,
    4 multiplies and 6 adds (13 FLOPs counting the accumulation), with the
    four inverse-spacing scalars as constant-memory candidates.
    """
    interior = (L - 2) ** 3
    total = L ** 3
    if active_fraction is None:
        active_fraction = interior / total
    return KernelModel(
        name="seven_point_stencil",
        dtype=dtype_from_any(precision),
        loads_global=7.0,
        stores_global=1.0,
        flops=13.0,
        int_ops=18.0,
        scalar_args=7,          # nx, ny, nz, invhx2, invhy2, invhz2, invhxyz2
        working_values=18,
        memory_pattern=MemoryPattern.STENCIL3D,
        active_fraction=max(min(active_fraction, 1.0), 1e-6),
        notes=f"L={L}, interior={interior}",
    )
