"""Vectorized NumPy reference implementation of the seven-point stencil.

Acts as the gold standard for the device kernel and as the execution path for
problem sizes that are too large for the functional thread-level simulator.
"""

from __future__ import annotations

import numpy as np

from ...core.errors import VerificationError

__all__ = ["laplacian_reference", "verify_laplacian"]


def laplacian_reference(u: np.ndarray, invhx2: float, invhy2: float,
                        invhz2: float, invhxyz2: float) -> np.ndarray:
    """Apply the seven-point stencil to the interior of ``u``.

    Returns an array of the same shape with boundary cells zeroed, matching
    what the device kernel writes into a zero-initialised output buffer.
    """
    if u.ndim != 3:
        raise VerificationError(f"expected a rank-3 field, got rank {u.ndim}")
    f = np.zeros_like(u)
    c = u[1:-1, 1:-1, 1:-1]
    f[1:-1, 1:-1, 1:-1] = (
        c * invhxyz2
        + (u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]) * invhx2
        + (u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]) * invhy2
        + (u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]) * invhz2
    )
    return f


def verify_laplacian(result: np.ndarray, expected: np.ndarray, *,
                     rtol: float = None) -> float:
    """Check *result* against the *expected* Laplacian on interior cells.

    Returns the max relative error.  Raises :class:`VerificationError`
    when the error exceeds *rtol* (defaults to 1e-5 for float32, 1e-10 for
    float64 expected values).
    """
    interior = (slice(1, -1),) * 3
    exp_i = expected[interior]
    res_i = np.asarray(result)[interior]
    scale = np.maximum(np.abs(exp_i), 1.0)
    err = float(np.max(np.abs(res_i - exp_i) / scale))
    if rtol is None:
        rtol = 1e-5 if expected.dtype == np.float32 else 1e-10
    if err > rtol:
        raise VerificationError(
            f"stencil verification failed: max relative error {err:.3e} > {rtol:.1e}",
            max_rel_error=err,
        )
    return err
