"""Unified-API adapter for the Hartree–Fock workload."""

from __future__ import annotations

from ..core.device import DeviceContext
from ..kernels.hartreefock.basis import make_helium_system
from ..kernels.hartreefock.kernel import (
    SCHWARZ_TOLERANCE,
    hartree_fock_kernel_model,
)
from ..kernels.hartreefock.runner import (
    APPROX_SCHWARZ_NATOMS,
    DEFAULT_BLOCK_SIZE,
    VERIFY_BLOCK_SIZE,
    VERIFY_SPACING,
    compute_schwarz,
    enqueue_hartreefock,
    expected_fock,
    fock_error,
    surviving_quadruple_fraction,
)
from ..core.kernel import LaunchConfig
from ..core.memo import Memo
from .base import ParamSpec, RunRequest, Workload

__all__ = ["HartreeFockWorkload"]

#: memo behind :func:`_screened_system`
SURVIVORS_MEMO = Memo("surviving_fraction")


def _screened_system(natoms: int, ngauss: int, spacing: float,
                     schwarz_tol: float):
    """The memoised helium system and its surviving-quadruple fraction.

    The fraction is memoised on ``(system.key, schwarz_tol)``; the Schwarz
    bounds behind it are approximate from :data:`APPROX_SCHWARZ_NATOMS` on.
    """
    system = make_helium_system(natoms, ngauss, spacing=spacing)

    def count():
        schwarz = compute_schwarz(
            system, approximate=natoms >= APPROX_SCHWARZ_NATOMS)
        return surviving_quadruple_fraction(schwarz, schwarz_tol)

    return system, SURVIVORS_MEMO.get_or_compute((system.key, schwarz_tol),
                                                 count)


class HartreeFockWorkload(Workload):
    """Hartree–Fock ERI/Fock-build kernel (compute-bound + atomics, Table 4)."""

    name = "hartreefock"
    description = ("Hartree–Fock two-electron Fock build with Schwarz "
                   "screening on a helium chain (Table 4 kernel time)")
    primary_metric = "kernel_time_ms"
    primary_unit = "ms"
    precisions = ("float64",)
    default_precision = "float64"
    sampling = "single-evaluation"
    params = (
        ParamSpec("natoms", int, 256, "helium atoms in the chain", minimum=1),
        ParamSpec("ngauss", int, 3, "gaussian primitives per basis function",
                  minimum=1),
        ParamSpec("block_size", int, DEFAULT_BLOCK_SIZE, "thread-block size",
                  minimum=1),
        ParamSpec("spacing", float, 3.0, "inter-atom spacing in bohr",
                  minimum=0.1),
        ParamSpec("schwarz_tol", float, SCHWARZ_TOLERANCE,
                  "Schwarz screening tolerance", minimum=0.0),
        ParamSpec("verify_natoms", int, 4,
                  "system size for functional verification", minimum=1),
    )

    #: thread-block sizes the tuner may try for the 1-D quadruple launch
    TUNING_BLOCK_SIZES = (64, 128, 256, 512, 1024)

    def tuning_space(self, request: RunRequest):
        """Launch knobs: thread-block size and fast-math."""
        from ..tuning.space import TuningKnob, TuningSpace

        return TuningSpace((
            TuningKnob("block_size", self.TUNING_BLOCK_SIZES),
            TuningKnob("fast_math", (False, True), kind="field"),
        ))

    def tuning_model(self, request: RunRequest):
        """The ERI kernel's model + launch on the requested system.

        The system and its surviving fraction are launch-independent and
        memoised by value, so neither a run nor the pruner's scoring of
        each block size re-screens the system.
        """
        p = self.validate_params(request.params)
        system, survivors = _screened_system(p["natoms"], p["ngauss"],
                                             p["spacing"], p["schwarz_tol"])
        model = hartree_fock_kernel_model(
            natoms=p["natoms"], ngauss=p["ngauss"],
            surviving_fraction=survivors)
        return model, LaunchConfig.for_elements(system.nquads,
                                                p["block_size"])

    def lint_graph(self):
        """Two-stream capture of :func:`enqueue_hartreefock` (tiny system).

        The six input uploads round-robin over two H2D lanes with the
        kernel event-ordered behind all of them, so the race detector
        checks the workload's real fan-in structure.
        """
        system = make_helium_system(2, 3, spacing=2.5)
        ctx = DeviceContext("h100")
        with ctx.capture(f"lint-{self.name}") as graph:
            enqueue_hartreefock(ctx, system, compute_schwarz(system),
                                streams=2)
        return graph

    def reference(self, *, natoms: int = 4, ngauss: int = 3,
                  spacing: float = 2.5):
        """Batched-ERI reference Fock matrix for a small helium system
        (unscreened, memoised, read-only)."""
        return expected_fock(make_helium_system(natoms, ngauss,
                                                spacing=spacing))

    def _verify(self, request: RunRequest):
        """Verify the device Fock build of a ``verify_natoms`` system."""
        small = make_helium_system(request.params["verify_natoms"],
                                   request.params["ngauss"],
                                   spacing=VERIFY_SPACING)
        out, pipeline = self._replay_verification(
            request, small.key, (VERIFY_BLOCK_SIZE,),
            lambda ctx: enqueue_hartreefock(
                ctx, small, compute_schwarz(small),
                block_size=VERIFY_BLOCK_SIZE, executor=request.executor,
                streams=request.streams))
        _, err = fock_error(small, 0.0, out["fock"])
        return err, pipeline

    def _figures(self, request: RunRequest, run):
        """Table 4's kernel time and the screening that drives it.

        No ERI is evaluated: the time comes from the backend model.
        """
        p = request.params
        system, survivors = _screened_system(p["natoms"], p["ngauss"],
                                             p["spacing"], p["schwarz_tol"])
        return ({"kernel_time_ms": run.timing.kernel_time_ms,
                 "nquads": float(system.nquads),
                 "surviving_fraction": survivors},
                {"kernel": run.timing}, {})
