"""Unified-API adapter for the miniBUDE workload."""

from __future__ import annotations

from ..core.device import DeviceContext
from ..kernels.minibude.deck import (
    BM1_NATLIG,
    BM1_NATPRO,
    BM1_NPOSES,
    BM1_NTYPES,
    make_deck,
)
from ..kernels.minibude.kernel import fasten_kernel_model
from ..kernels.minibude.metrics import gflops
from ..kernels.minibude.runner import (
    enqueue_fasten,
    expected_energies,
    fasten_error,
    fasten_inputs,
    minibude_launch_config,
)
from .base import ParamSpec, RunRequest, Workload

__all__ = ["MiniBudeWorkload"]


class MiniBudeWorkload(Workload):
    """miniBUDE ``fasten`` docking kernel (compute-bound, Figures 6-7)."""

    name = "minibude"
    description = ("miniBUDE fasten molecular-docking kernel on the bm1 deck "
                   "(Eq. 3 GFLOP/s)")
    primary_metric = "gflops"
    primary_unit = "GFLOP/s"
    precisions = ("float32",)
    default_precision = "float32"
    sampling = "single-evaluation"
    params = (
        ParamSpec("ppwi", int, 1, "poses per work-item", minimum=1),
        ParamSpec("wgsize", int, 64, "work-group size", minimum=1),
        ParamSpec("nposes", int, BM1_NPOSES,
                  "number of poses (divisible by ppwi)", minimum=1),
        ParamSpec("verify_poses", int, 64,
                  "poses in the reduced verification deck", minimum=1),
        ParamSpec("seed", int, 2025, "deck-generation seed"),
    )

    #: poses-per-work-item candidates (the paper's Figures 6-7 sweep axis)
    TUNING_PPWI = (1, 2, 4, 8, 16)
    #: work-group size candidates (wg=8 vs wg=64 is the Figure 6 contrast)
    TUNING_WGSIZE = (8, 16, 32, 64, 128, 256)

    def tuning_space(self, request: RunRequest):
        """Launch knobs: PPWI, work-group size and fast-math.

        The constraint mirrors :func:`minibude_launch_config`: the pose
        count must split evenly into poses-per-work-item.
        """
        from ..tuning.space import TuningKnob, TuningSpace

        p = self.validate_params(request.params)
        nposes = p["nposes"]
        return TuningSpace(
            (
                TuningKnob("ppwi", self.TUNING_PPWI),
                TuningKnob("wgsize", self.TUNING_WGSIZE),
                TuningKnob("fast_math", (False, True), kind="field"),
            ),
            constraint=lambda cfg: nposes % int(cfg["ppwi"]) == 0,
        )

    def tuning_model(self, request: RunRequest):
        """The fasten kernel's model + launch on the bm1 deck shape."""
        p = request.params
        model = fasten_kernel_model(ppwi=p["ppwi"], natlig=BM1_NATLIG,
                                    natpro=BM1_NATPRO, wgsize=p["wgsize"])
        return model, minibude_launch_config(p["nposes"], p["ppwi"],
                                             p["wgsize"])

    def lint_graph(self):
        """Two-stream capture of :func:`enqueue_fasten` on a tiny deck.

        The race detector sees the workload's real event-edge structure
        (every upload lane fanned into the compute stream) rather than a
        single-stream degenerate.
        """
        deck = make_deck(natlig=4, natpro=8, ntypes=2, nposes=32, seed=2025,
                         name="lint")
        ctx = DeviceContext("h100")
        with ctx.capture(f"lint-{self.name}") as graph:
            enqueue_fasten(ctx, deck, streams=2)
        return graph

    def reference(self, *, natlig: int = 8, natpro: int = 32,
                  nposes: int = 64, seed: int = 2025):
        """Vectorised reference energies for a reduced random deck
        (memoised, read-only)."""
        deck = make_deck(natlig=natlig, natpro=natpro, ntypes=4,
                         nposes=nposes, seed=seed, name="reference")
        return expected_energies(deck)

    def _verify(self, request: RunRequest):
        """Verify on a ``verify_poses`` deck of 8 ligand x 32 protein atoms.

        Only the deck's shape enters the timing model, so the bm1 deck is
        never generated.
        """
        p = request.params
        small = make_deck(natlig=8, natpro=32, ntypes=BM1_NTYPES,
                          nposes=p["verify_poses"], seed=p["seed"],
                          name="verify")
        knobs = (min(p["ppwi"], 2), min(p["wgsize"], 8))
        # one program per deck shape; each request binds its own deck
        shape = None if small.key is None else small.key[:4]
        out, pipeline = self._replay_verification(
            request, shape, knobs,
            lambda ctx: enqueue_fasten(
                ctx, small, ppwi=knobs[0], wgsize=knobs[1],
                executor=request.executor, streams=request.streams),
            **fasten_inputs(small))
        return fasten_error(small, out["etotals"]), pipeline

    def _figures(self, request: RunRequest, run):
        """Eq. 3 GFLOP/s of the bm1 shape (one evaluation, no samples)."""
        p = request.params
        return ({"gflops": gflops(p["ppwi"], BM1_NATLIG, BM1_NATPRO,
                                  p["nposes"], run.timing.kernel_time_s),
                 "kernel_time_ms": run.timing.kernel_time_ms},
                {"kernel": run.timing}, {})
