"""Host-cost benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 20 --trace 0

Three in-process workloads each load a different layer of ``src/repro``
(NOTES.md beside this file says why each was chosen and what each metric
means):

* ``cli-warm``     -- ``repro.cli.main`` for ``bench`` (result-cache miss,
  then disk hit) on each kernel, ``lint --all``, ``graph --all``, ``tune``
  and a ``report`` of the model-only experiments;
* ``sweep-mixed``  -- ``Workload.run`` over a fixed multiset of requests
  crossing kernels, platforms, sizes, verify and executor, cache off;
* ``graph-replay`` -- ``DeviceGraph.replay`` over a fixed multiset of
  captured, optimized and executor-variant graphs.

Work is done in passes over a fixed multiset of operations; the seed sets
only the order and the seeded request parameters, never the amount of work.
Passes repeat until the next one would end past ``--seconds``.  Every
operation's output is checked against the values kept in ``expected/``; a
failed or wrong operation counts against ``ok_rate``.  ``setup_s`` times
fresh interpreters from start to the first operation, which is where the
cost of importing the package shows.  Reported times are scaled to a
reference host speed measured by a probe between operations
(:class:`HostProbe`); the raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a warm-up pass and then alternates untraced and traced
passes (the layer wrappers of ``layers.py``) and reports the per-layer
breakdown.  The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
SCRATCH = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402

#: seconds a set-up child may take
CHILD_TIMEOUT_S = 120

KERNELS = ("stencil", "babelstream", "minibude", "hartreefock")
PLATFORMS = (("h100", "mojo"), ("h100", "cuda"), ("mi300a", "mojo"),
             ("mi300a", "hip"))
#: problem sizes per kernel in sweep-mixed, so the per-request cost spans
#: model-only microseconds to Hartree-Fock setup.  Hartree-Fock stays below
#: its default 256 atoms (150 ms a request, most of it Schwarz setup) so a
#: pass takes about a second and every request is sampled often in a run.
SWEEP_SIZES = {
    "stencil": ({"L": 64}, {"L": 256}, {"L": 512}),
    "babelstream": ({"n": 1 << 20}, {"n": 1 << 25}),
    "minibude": ({"nposes": 16384}, {"nposes": 65536}),
    "hartreefock": ({"natoms": 32}, {"natoms": 64}),
}
#: the request parameter each kernel draws from the seed (jitter or deck)
SEEDED_PARAM = {"stencil": "seed", "babelstream": "seed", "minibude": "seed"}
#: copies of each graph in one graph-replay pass
REPLAY_COPIES = 10
#: passes per side (untraced, traced) of a --trace 1 run
TRACE_PASSES = {"cli-warm": 5, "sweep-mixed": 3, "graph-replay": 10}
#: fresh interpreters whose set-up is timed for setup_s
SETUP_REPEATS = 3
#: seconds between host-speed probes while operations run
PROBE_INTERVAL_S = 0.05
#: probe time (ms) the reported times are scaled to: about the probe's
#: median on the idle 2-core Xeon VM this benchmark was built on
REFERENCE_PROBE_MS = 1.5
#: the experiments cli-warm reports: the model-only ones, so one report
#: takes a fraction of a second (the others rebuild Schwarz bounds and
#: docking decks, which sweep-mixed already times)
EXPERIMENT_IDS = ("fig2", "fig3", "fig4", "fig5", "table2", "table3")
#: spans reported on their own as shares of wall time (single-span layers
#: are covered by the layer share)
SUB_SPANS = ("cache.run", "cache.lookup", "cache.store", "setup.helium",
             "setup.schwarz", "setup.survivors", "setup.bm1", "setup.deck",
             "model.time", "model.predict", "verify.drain", "verify.enqueue",
             "verify.transfer", "verify.launch", "verify.reference",
             "capture.graph",
             "capture.instantiate", "graphopt.optimize", "graphopt.lower",
             "tuning.search", "tuning.prune", "analysis.lint",
             "analysis.racecheck", "analysis.regions", "report.obs",
             "report.render")
#: call counts reported per span
CALL_COUNTS = ("request.validate", "setup.helium", "setup.schwarz",
               "setup.bm1", "compile", "model.time", "verify.reference",
               "replay", "graphopt.optimize", "analysis.lint",
               "analysis.regions")


class Sample(NamedTuple):
    """One timed operation."""

    #: the group the operation is reported in (e.g. ``bench-miss``)
    kind: str
    #: the operation itself; every pass runs the same multiset of keys
    key: str
    seconds: float
    ok: bool


def same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def timed(kind: str, key: str, call: Callable, check: Callable) -> Sample:
    """Time ``call()``; *check* judges its result outside the timing."""
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    ok = check(result)
    if not ok:
        sys.stderr.write(f"{key}: output differs from expected\n")
    return Sample(kind, key, seconds, ok)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class CliWarm:
    """``repro.cli.main`` for bench (miss, then disk hit), lint, graph, tune
    and report."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.expected = json.loads((EXPECTED / "cli.json").read_text())

    def setup(self) -> None:
        pass

    def pass_ops(self, index: int) -> List[Callable[[], Sample]]:
        rng = random.Random(f"cli-warm:{self.seed}:{index}")
        units = [("bench", k) for k in KERNELS] + [
            ("lint",), ("graph",), ("tune",), ("report",)]
        rng.shuffle(units)
        ops = []
        for unit in units:
            if unit[0] == "bench":
                kernel = unit[1]
                params = []
                if kernel in SEEDED_PARAM:
                    seed = rng.randrange(1, 10**6)
                    params = ["--param", f"{SEEDED_PARAM[kernel]}={seed}"]
                ops.extend(self._bench_pair(kernel, params))
            elif unit[0] == "tune":
                ops.append(self._tune())
            elif unit[0] == "report":
                ops.append(self._report())
            else:
                ops.append(self._analysis(unit[0]))
        return ops

    def _bench_pair(self, kernel: str, params: List[str]):
        state = {}

        def miss() -> Sample:
            cache = Path(tempfile.mkdtemp(dir=self.scratch))
            state["argv"] = argv = ["bench", kernel, *params, "--json",
                                    "--cache-dir", str(cache)]

            def check(out):
                state["miss"] = payload = _payload(out)
                stored = list((cache / "results").glob("*.json"))
                return (payload is not None and len(stored) == 1
                        and _verdict_ok(payload))

            return timed("bench-miss", f"bench-miss:{kernel}",
                         lambda: run_cli(argv), check)

        def hit() -> Sample:
            def check(out):
                payload, first = _payload(out), state["miss"]
                return (payload is not None and first is not None
                        and payload["metrics"] == first["metrics"]
                        and payload["verification"]["ran"]
                        == first["verification"]["ran"]
                        and payload["verification"]["passed"]
                        == first["verification"]["passed"])

            return timed("bench-hit", f"bench-hit:{kernel}",
                         lambda: run_cli(state["argv"]), check)

        return [miss, hit]

    def _tune(self):
        """``tune stencil`` into a fresh database: a search every time."""
        def call():
            tune_dir = tempfile.mkdtemp(dir=self.scratch)
            return run_cli(["tune", "stencil", "--json", "--tune-dir",
                            tune_dir])

        def check(out):
            payload = _payload(out)
            return (payload is not None and payload["source"] == "search"
                    and payload["best"] == self.expected["tune:stencil"])

        return lambda: timed("tune", "tune", call, check)

    def _report(self):
        """``report`` of the model-only experiments, without the tuning
        section (``tune`` times the search) and the graph-compiler section
        (a replay benchmark of its own; graph-replay times replays)."""
        def check(out):
            code, text = out
            return code == 0 and all(self.expected[eid] in text
                                     for eid in EXPERIMENT_IDS)

        return lambda: timed(
            "report", "report",
            lambda: run_cli(["report", *EXPERIMENT_IDS, "--no-tuning",
                             "--no-graphopt"]),
            check)

    @staticmethod
    def _analysis(command: str):
        def check(out):
            payload = _payload(out)
            if payload is None or command == "lint":
                return payload is not None
            return (len(payload["graphs"]) == len(KERNELS)
                    and all(g.get("lint_clean") for g in payload["graphs"]))

        return lambda: timed("analysis", command,
                             lambda: run_cli([command, "--all", "--json"]),
                             check)


def run_cli(argv: List[str]):
    """``repro.cli.main(argv)``; returns (exit code, standard output)."""
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    return code, out.getvalue()


def _payload(out):
    code, text = out
    if code != 0:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None


def _verdict_ok(payload: dict) -> bool:
    verification = payload["verification"]
    return not verification["ran"] or verification["passed"]


def sweep_configs():
    """Every (kernel, gpu, backend, size, verify, executor) of sweep-mixed."""
    for kernel in KERNELS:
        for gpu, backend in PLATFORMS:
            for size in SWEEP_SIZES[kernel]:
                for verify in (False, True):
                    for executor in ("auto", "lowered"):
                        yield kernel, gpu, backend, size, verify, executor


def config_key(kernel, gpu, backend, size, verify, executor) -> str:
    sizes = ",".join(f"{k}={v}" for k, v in sorted(size.items()))
    return (f"{kernel}/{gpu}/{backend}/{sizes}/"
            f"{'verify' if verify else 'model'}/{executor}")


class SweepMixed:
    """``Workload.run`` over the sweep multiset, with the result cache off."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.expected = json.loads((EXPECTED / "sweep.json").read_text())

    def setup(self) -> None:
        from repro.workloads import get_workload

        self.workloads = {k: get_workload(k) for k in KERNELS}

    def pass_ops(self, index: int) -> List[Callable[[], Sample]]:
        rng = random.Random(f"sweep-mixed:{self.seed}:{index}")
        configs = list(sweep_configs())
        rng.shuffle(configs)
        ops = []
        for config in configs:
            kernel, params = config[0], dict(config[3])
            if kernel in SEEDED_PARAM:
                params[SEEDED_PARAM[kernel]] = rng.randrange(1, 10**6)
            ops.append(self._request(config, params))
        return ops

    def _request(self, config, params):
        kernel, gpu, backend, _, verify, executor = config
        key = config_key(*config)
        expected = self.expected[key]
        workload = self.workloads[kernel]

        def call():
            return workload.run(workload.make_request(
                gpu=gpu, backend=backend, params=params, verify=verify,
                executor=executor))

        def check(result):
            v = result.verification
            return (v.ran == verify and (not v.ran or v.passed)
                    and all(same_value(result.metrics.get(k), value)
                            for k, value in expected.items()))

        return lambda: timed("verify" if verify else "model", key, call,
                             check)


class GraphReplay:
    """Replays drawn from a fixed multiset of captured graphs."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> None:
        from repro.graphopt import optimize_graph
        from repro.workloads import get_workload

        self.graphs = []
        for kernel in KERNELS:
            workload = get_workload(kernel)
            graph = workload.lint_graph()
            optimized, _ = optimize_graph(graph, "all")
            reference = _copy_outputs(graph.replay())
            self.graphs.append((f"{kernel}.captured", graph, reference))
            self.graphs.append((f"{kernel}.optimized", optimized, reference))
            probes = {mode: workload.tuning_probe(
                workload.make_request(executor=mode))
                for mode in ("vectorized", "lowered")}
            if probes["vectorized"] is None:
                continue
            reference = _copy_outputs(probes["vectorized"].replay())
            for mode, probe in probes.items():
                self.graphs.append((f"{kernel}.{mode}", probe, reference))

    def pass_ops(self, index: int) -> List[Callable[[], Sample]]:
        rng = random.Random(f"graph-replay:{self.seed}:{index}")
        entries = self.graphs * REPLAY_COPIES
        rng.shuffle(entries)
        return [self._replay(*entry) for entry in entries]

    @staticmethod
    def _replay(name, graph, reference):
        def check(outputs):
            return outputs.keys() == reference.keys() and all(
                _bitwise_equal(outputs[k], reference[k]) for k in reference)

        return lambda: timed("replay", name, graph.replay, check)


def _copy_outputs(outputs):
    return {k: v.copy() for k, v in outputs.items()}


def _bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


WORKLOADS = {
    "cli-warm": CliWarm,
    "sweep-mixed": SweepMixed,
    "graph-replay": GraphReplay,
}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

class HostProbe:
    """How fast the host runs a fixed piece of pure-Python work right now.

    On a shared host every timing of a run moves together by tens of
    percent as other tenants come and go.  The probe is sampled between
    operations throughout a run, and reported times are scaled by
    ``REFERENCE_PROBE_MS / median probe time``, so runs made at different
    moments compare.  The probe runs no code under test: a change to the
    program moves scaled and raw times alike.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        table = {}
        for i in range(1500):
            table[f"key{i}"] = (i, i * 0.5, str(i))
        ordered = sorted(table.items(), key=lambda item: item[1][2])
        total = sum(value[1] for _, value in ordered)
        for _ in range(800):
            total = (total * 1.0000001 + 1.0) % 1e9
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    @property
    def scale(self) -> float:
        """Factor from measured to reference-host times."""
        return REFERENCE_PROBE_MS / self.median_ms


def run_passes(bench, passes: int, first: int = 0,
               probe: Optional[HostProbe] = None) -> List[Sample]:
    samples = []
    for index in range(first, first + passes):
        for op in bench.pass_ops(index):
            if probe is not None:
                probe.maybe_sample()
            samples.append(op())
    return samples


def run_for(bench, seconds: float, probe: HostProbe) -> tuple:
    """Whole passes until the next one would end after *seconds*.

    Returns ``(samples, passes)``.
    """
    samples: List[Sample] = []
    start = time.perf_counter()
    passes = 0
    while True:
        samples += run_passes(bench, 1, first=passes, probe=probe)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return samples, passes


def one_pass(samples: List[Sample], passes: int) -> List[Sample]:
    """One pass of the multiset, each operation at its median time.

    On a shared host the same operation's wall time swings by tens of
    percent as other tenants come and go, and the first pass pays for cold
    caches; the per-operation median over the run's passes is steadier
    from run to run than totals or a median over unlike operations.
    """
    by_key: Dict[str, List[Sample]] = {}
    for sample in samples:
        by_key.setdefault(sample.key, []).append(sample)
    return [group[0]._replace(seconds=statistics.median(s.seconds
                                                        for s in group))
            for group in by_key.values()
            for _ in range(len(group) // passes)]


def _median_ms(samples: List[Sample], kinds=None) -> float:
    return statistics.median(s.seconds for s in samples
                             if kinds is None or s.kind in kinds) * 1e3


def end_to_end(name: str, samples: List[Sample], passes: int,
               setup_s: float, probe: HostProbe) -> tuple:
    """End-to-end metrics, plus the per-workload names they stand for.

    Times are scaled to the reference host speed (see :class:`HostProbe`).
    """
    scale = probe.scale
    steady = [s._replace(seconds=s.seconds * scale)
              for s in one_pass(samples, passes)]
    busy = sum(s.seconds for s in steady)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "op_p50_ms": (_median_ms(steady), "ms"),
        "ops_per_s": (len(steady) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_rate": (sum(s.ok for s in samples) / len(samples), "fraction"),
    }
    named = {"error_rate": (1.0 - metrics["ok_rate"][0], "fraction"),
             "passes": (passes, "count"),
             "host_probe_ms": (probe.median_ms, "ms"),
             "raw_setup_s": (setup_s, "s"),
             "raw_op_p50_ms": (_median_ms(samples), "ms"),
             "raw_ops_per_s": (len(samples) / sum(s.seconds for s in samples),
                               "1/s")}
    if name == "cli-warm":
        named["bench_miss_ms"] = (_median_ms(steady, {"bench-miss"}), "ms")
        named["bench_hit_ms"] = (_median_ms(steady, {"bench-hit"}), "ms")
        named["analysis_ms"] = (_median_ms(steady, {"analysis"}), "ms")
        named["tune_ms"] = (_median_ms(steady, {"tune"}), "ms")
        named["report_ms"] = (_median_ms(steady, {"report"}), "ms")
    elif name == "sweep-mixed":
        named["sweep_rps"] = (metrics["ops_per_s"][0], "req/s")
        named["sweep_model_p50_ms"] = (_median_ms(steady, {"model"}), "ms")
        named["sweep_verify_p50_ms"] = (_median_ms(steady, {"verify"}), "ms")
    else:
        named["replay_rps"] = (metrics["ops_per_s"][0], "replays/s")
    return metrics, named


def per_layer(name: str, untraced: List[Sample], traced: List[Sample],
              recorder: layers.Recorder, import_ms: float,
              import_modules: int, compile_counts) -> tuple:
    """Per-layer metrics of a traced run, plus the full breakdown."""
    wall_ms = sum(s.seconds for s in traced) * 1e3
    dump = recorder.summary()
    self_ms, calls = dump["self_ms"], dump["calls"]
    counts, distinct = dump["counts"], dump["distinct"]
    breakdown = layers.layer_breakdown(self_ms, wall_ms)

    def share(ms: float) -> float:
        return 100.0 * ms / wall_ms if wall_ms else 0.0

    def ratio(part, whole) -> float:
        return part / whole if whole else 0.0

    untraced_ms = sum(s.seconds for s in untraced) * 1e3
    metrics = {f"{layer}.pct": (share(ms), "%")
               for layer, ms in breakdown.items()}
    for span in SUB_SPANS:
        metrics[f"{span}.pct"] = (share(self_ms.get(span, 0.0)), "%")
    for eid in EXPERIMENT_IDS:
        metrics[f"experiment.{eid}.pct"] = (
            share(self_ms.get(f"experiment.{eid}", 0.0)), "%")
    metrics["import.ms"] = (import_ms, "ms")
    metrics["import.modules"] = (import_modules, "count")
    for span in CALL_COUNTS:
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
    metrics["experiment.calls"] = (
        sum(calls.get(f"experiment.{e}", 0) for e in EXPERIMENT_IDS), "count")
    for key in ("cache.hits", "cache.misses", "verify.launches",
                "tuning.measured", "tuning.pruned"):
        metrics[key] = (counts.get(key, 0), "count")
    for span in layers.DISTINCT:
        metrics[f"{span}.distinct"] = (distinct.get(span, 0), "count")
    hits, misses = compile_counts
    metrics["compile.hit_ratio"] = (ratio(hits, hits + misses), "fraction")
    metrics["verify.lowered_share"] = (
        ratio(counts.get("verify.lowered", 0),
              counts.get("verify.launches", 0)), "fraction")
    metrics["graphopt.lowered_ratio"] = (
        ratio(counts.get("graphopt.lowered", 0),
              counts.get("graphopt.lower_attempts", 0)), "fraction")
    metrics["trace.overhead_pct"] = (
        100.0 * (wall_ms / untraced_ms - 1.0) if untraced_ms else 0.0, "%")
    detail = {"workload": name, "wall_ms": wall_ms,
              "untraced_wall_ms": untraced_ms, "operations": len(traced),
              "import_ms": import_ms,
              "layers_ms": breakdown,
              "layers_pct": {k: share(v) for k, v in breakdown.items()},
              "spans_ms": self_ms, "calls": calls, "counts": counts,
              "distinct": distinct}
    if name == "graph-replay":
        detail["replay_us"] = {
            s.key: s.seconds * 1e6
            for s in one_pass(traced, TRACE_PASSES[name])}
    return metrics, detail


def import_repro() -> tuple:
    """Import the checkout's ``repro``; returns (ms, modules loaded)."""
    before = len(sys.modules)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return elapsed_ms, len(sys.modules) - before


def setup_seconds(name: str, scratch: Path, probe: HostProbe) -> float:
    """Median time for a fresh interpreter to reach the first operation."""
    env = dict(os.environ)
    # read cached bytecode as an installed package does; the first child
    # writes it under src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import run; run.child_setup({name!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        cwd = Path(tempfile.mkdtemp(dir=scratch))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_setup(name: str) -> None:
    """Import and set up workload *name*; run in a child by setup_seconds."""
    import_repro()
    WORKLOADS[name](0, Path.cwd()).setup()


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: Path) -> tuple:
    """Run one workload; returns (samples, metrics, named, detail)."""
    probe = HostProbe()
    setup_s = 0.0 if trace else setup_seconds(name, scratch, probe)
    os.chdir(tempfile.mkdtemp(dir=scratch))
    import_ms, import_modules = import_repro()
    bench = WORKLOADS[name](seed, scratch)
    bench.setup()
    if not trace:
        samples, passes = run_for(bench, seconds, probe)
        metrics, named = end_to_end(name, samples, passes, setup_s, probe)
        return samples, metrics, named, None
    from repro.core.compiler import compile_cache_info

    run_passes(bench, 1, first=-1)          # warm-up: the counts then repeat
    # untraced and traced passes alternate, so drift in the host's speed
    # does not show up as tracing overhead
    untraced: List[Sample] = []
    traced: List[Sample] = []
    recorder = layers.Recorder()
    compile_counts = [0, 0]
    for index in range(TRACE_PASSES[name]):
        untraced += run_passes(bench, 1, first=2 * index)
        before = compile_cache_info()
        installation = layers.Installation(recorder)
        try:
            traced += run_passes(bench, 1, first=2 * index + 1)
        finally:
            installation.remove()
        after = compile_cache_info()
        compile_counts[0] += after["hits"] - before["hits"]
        compile_counts[1] += after["misses"] - before["misses"]
    metrics, detail = per_layer(name, untraced, traced, recorder, import_ms,
                                import_modules, compile_counts)
    return untraced + traced, metrics, {}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH, prefix=f"{args.workload}-"))
    try:
        samples, metrics, named, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"operations {len(samples)}  failed {failed}")
    for key, (value, unit) in {**metrics, **named}.items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    if detail is not None:
        print("breakdown " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
