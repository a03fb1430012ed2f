"""Unified-API adapter for the miniBUDE workload.

The benchmark engine (:func:`bench_minibude`) lives here; the legacy
:func:`repro.kernels.minibude.runner.run_minibude` is a thin shim over it.
"""

from __future__ import annotations

from typing import Optional

from ..backends import get_backend
from ..core.errors import ConfigurationError
from ..gpu.specs import get_gpu
from ..kernels.minibude.deck import (
    BM1_NATLIG,
    BM1_NATPRO,
    BM1_NPOSES,
    BM1_NTYPES,
    Deck,
    make_deck,
)
from ..kernels.minibude.kernel import fasten_kernel_model
from ..kernels.minibude.metrics import gflops
from ..kernels.minibude.reference import reference_energies
from ..kernels.minibude.runner import (
    MiniBudeResult,
    minibude_launch_config,
    run_fasten_functional,
)
from .base import ParamSpec, RunRequest, Verification, Workload, WorkloadResult
from .provenance import build_provenance

__all__ = ["MiniBudeWorkload", "bench_minibude"]


def bench_minibude(
    *,
    ppwi: int = 1,
    wgsize: int = 64,
    nposes: int = BM1_NPOSES,
    backend: str = "mojo",
    gpu: str = "h100",
    fast_math: bool = False,
    deck: Optional[Deck] = None,
    verify: bool = True,
    verify_poses: int = 64,
    seed: int = 2025,
    executor: str = "auto",
    streams: int = 1,
    pipeline_sink: Optional[dict] = None,
) -> MiniBudeResult:
    """Benchmark one miniBUDE configuration (bm1 by default).

    Functional verification runs the device kernel on a reduced deck; the
    reported GFLOP/s for the requested configuration comes from Eq. 3 applied
    to the modelled kernel time.  ``streams``/``pipeline_sink`` shape the
    verification pipeline (see
    :func:`~repro.kernels.minibude.runner.run_fasten_functional`).
    """
    spec = get_gpu(gpu)
    be = get_backend(backend)
    # Only the deck's shape enters the model, so bm1 is never generated.
    if deck is None:
        if nposes <= 0:
            raise ConfigurationError("nposes must be positive")
        natlig, natpro, ntypes = BM1_NATLIG, BM1_NATPRO, BM1_NTYPES
    else:
        natlig, natpro, ntypes = deck.natlig, deck.natpro, deck.ntypes
        nposes = deck.nposes

    verified = False
    max_rel_error = float("nan")
    if verify:
        small = make_deck(natlig=min(natlig, 8), natpro=min(natpro, 32),
                          ntypes=ntypes,
                          nposes=verify_poses, seed=seed, name="verify")
        _, max_rel_error = run_fasten_functional(
            small, ppwi=min(ppwi, 2), wgsize=min(wgsize, 8), gpu=gpu,
            executor=executor, streams=streams, pipeline_sink=pipeline_sink)
        verified = True

    model = fasten_kernel_model(ppwi=ppwi, natlig=natlig, natpro=natpro,
                                wgsize=wgsize)
    launch = minibude_launch_config(nposes, ppwi, wgsize)
    run = be.time(model, spec, launch, fast_math=fast_math)
    time_s = run.timing.kernel_time_s
    achieved = gflops(ppwi, natlig, natpro, nposes, time_s)

    return MiniBudeResult(
        ppwi=ppwi,
        wgsize=wgsize,
        nposes=nposes,
        natlig=natlig,
        natpro=natpro,
        backend=be.name,
        gpu=spec.name,
        fast_math=run.fast_math,
        kernel_time_ms=run.timing.kernel_time_ms,
        gflops=achieved,
        verified=verified,
        max_rel_error=max_rel_error,
        timing=run.timing,
    )


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
        """Fasten kernel model + launch for the pruner (bm1 deck shape)."""
        p = self.validate_params(request.params)
        model = fasten_kernel_model(ppwi=p["ppwi"], natlig=BM1_NATLIG,
                                    natpro=BM1_NATPRO, wgsize=p["wgsize"])
        return model, minibude_launch_config(p["nposes"], p["ppwi"],
                                             p["wgsize"])

    def lint_graph(self):
        """Two-stream upload → fan-in → fasten → D2H capture on a tiny deck.

        Mirrors :func:`~repro.kernels.minibude.runner.run_fasten_functional`
        with ``streams=2``, so the race detector sees the workload's real
        event-edge structure (every upload lane fanned into the compute
        stream) rather than a single-stream degenerate.
        """
        import itertools

        from ..core.device import DeviceContext
        from ..core.dtypes import DType
        from ..kernels.minibude.deck import make_deck
        from ..kernels.minibude.kernel import fasten_kernel, fasten_kernel_model
        from ..kernels.minibude.runner import minibude_launch_config

        deck = make_deck(natlig=4, natpro=8, ntypes=2, nposes=32, seed=2025,
                         name="lint")
        ppwi, wgsize = 2, 8
        launch = minibude_launch_config(deck.nposes, ppwi, wgsize)
        ctx = DeviceContext("h100")
        pool, compute = ctx.upload_pipeline(2)
        lanes = itertools.cycle(pool)

        def upload(data, label):
            buf = ctx.enqueue_create_buffer(DType.float32, data.size,
                                            label=label)
            buf.copy_from_host(data, stream=next(lanes))
            return buf

        with ctx.capture(f"lint-{self.name}") as graph:
            protein = upload(deck.protein_flat(), "protein")
            ligand = upload(deck.ligand_flat(), "ligand")
            forcefield = upload(deck.forcefield_flat(), "forcefield")
            transforms = [upload(t, f"t{i}")
                          for i, t in enumerate(deck.transforms())]
            etot_buf = ctx.enqueue_create_buffer(DType.float32, deck.nposes,
                                                 label="etotals")
            ctx.fan_in(pool, compute, prefix="uploads")
            ctx.enqueue_function(
                fasten_kernel, ppwi, deck.natlig, deck.natpro,
                protein.tensor(mut=False, bounds_check=False),
                ligand.tensor(mut=False, bounds_check=False),
                *[t.tensor(mut=False, bounds_check=False)
                  for t in transforms],
                etot_buf.tensor(bounds_check=False),
                forcefield.tensor(mut=False, bounds_check=False),
                deck.nposes,
                grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                model=fasten_kernel_model(ppwi=ppwi, natlig=deck.natlig,
                                          natpro=deck.natpro, wgsize=wgsize),
                stream=compute,
            )
            etot_buf.copy_to_host(stream=compute)
        return graph

    def reference(self, *, natlig: int = 8, natpro: int = 32,
                  nposes: int = 64, seed: int = 2025):
        """Vectorised reference energies for a reduced random deck."""
        deck = make_deck(natlig=natlig, natpro=natpro, ntypes=4,
                         nposes=nposes, seed=seed, name="reference")
        return reference_energies(deck)

    def verify(self, *, ppwi: int = 2, wgsize: int = 8,
               verify_poses: int = 64, seed: int = 2025,
               gpu: str = "h100") -> float:
        """Device-kernel functional verification on a reduced deck."""
        deck = make_deck(natlig=8, natpro=32, ntypes=4, nposes=verify_poses,
                         seed=seed, name="verify")
        _, err = run_fasten_functional(deck, ppwi=ppwi, wgsize=wgsize, gpu=gpu)
        return err

    def _run(self, request: RunRequest) -> WorkloadResult:
        p = request.params
        sink: dict = {}
        result = bench_minibude(
            ppwi=p["ppwi"], wgsize=p["wgsize"], nposes=p["nposes"],
            backend=request.backend, gpu=request.gpu,
            fast_math=request.fast_math, verify=request.verify,
            verify_poses=p["verify_poses"], seed=p["seed"],
            executor=request.executor,
            streams=request.streams, pipeline_sink=sink,
        )
        timing = self._timing_with_pipeline({"kernel": result.timing}, sink)
        return WorkloadResult(
            request=request,
            metrics={
                "gflops": result.gflops,
                "kernel_time_ms": result.kernel_time_ms,
                **self.counter_metrics(request),
            },
            primary_metric=self.primary_metric,
            verification=Verification(ran=result.verified,
                                      passed=result.verified,
                                      max_rel_error=result.max_rel_error),
            timing=timing,
            provenance=build_provenance(request, sampling=self.sampling),
            raw=result,
        )
