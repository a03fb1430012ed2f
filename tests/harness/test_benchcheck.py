"""Tests for the benchmark-regression guard behind ``repro bench-compare``."""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.harness.benchcheck import (
    compare_benchmarks,
    extract_stats,
    load_stats,
    write_baseline,
)


def _trimmed(**named):
    return {name: {"min": t, "mean": t * 1.1} for name, t in named.items()}


class TestExtractStats:
    def test_from_full_pytest_benchmark_export(self):
        export = {
            "machine_info": {"cpu": "whatever"},
            "benchmarks": [
                {"name": "test_a", "stats": {"min": 0.5, "mean": 0.6, "max": 1.0}},
                {"name": "test_b", "stats": {"min": 0.1, "mean": 0.2, "max": 0.3}},
            ],
        }
        stats = extract_stats(export)
        assert stats == {"test_a": {"min": 0.5, "mean": 0.6},
                         "test_b": {"min": 0.1, "mean": 0.2}}

    def test_trimmed_mapping_passthrough(self):
        trimmed = _trimmed(test_a=0.5)
        assert extract_stats(trimmed) == {"test_a": {"min": 0.5, "mean": 0.55}}


class TestCompare:
    def test_within_threshold_ok(self):
        rows = compare_benchmarks(_trimmed(t=1.0), _trimmed(t=1.9))
        assert [r.status for r in rows] == ["ok"]
        assert rows[0].ratio == pytest.approx(1.9)

    def test_regression_fails(self):
        rows = compare_benchmarks(_trimmed(t=1.0), _trimmed(t=2.5))
        assert rows[0].status == "fail" and rows[0].regressed

    def test_speedup_ok(self):
        rows = compare_benchmarks(_trimmed(t=1.0), _trimmed(t=0.01))
        assert rows[0].status == "ok"

    def test_new_benchmark_is_informational(self):
        rows = compare_benchmarks({}, _trimmed(fresh=1.0))
        assert rows[0].status == "new" and not rows[0].regressed

    def test_missing_benchmark_is_flagged_but_not_failing(self):
        rows = compare_benchmarks(_trimmed(gone=1.0), {})
        assert rows[0].status == "missing" and not rows[0].regressed

    def test_custom_threshold(self):
        rows = compare_benchmarks(_trimmed(t=1.0), _trimmed(t=1.6),
                                  threshold=1.5)
        assert rows[0].regressed

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            compare_benchmarks(_trimmed(t=1.0), _trimmed(t=1.0), threshold=0.9)

    def test_report_rows_render(self):
        rows = compare_benchmarks(_trimmed(t=1.0), _trimmed(t=2.5, fresh=0.1))
        text = "\n".join(r.to_text() for r in rows)
        assert "fail" in text and "new" in text


class TestRoundtrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        stats = _trimmed(test_a=0.25, test_b=0.5)
        write_baseline(str(path), stats)
        assert load_stats(str(path)) == stats

    def test_load_full_export(self, tmp_path):
        path = tmp_path / "export.json"
        path.write_text(json.dumps({
            "benchmarks": [{"name": "t", "stats": {"min": 1.0, "mean": 2.0}}]}))
        assert load_stats(str(path)) == {"t": {"min": 1.0, "mean": 2.0}}

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_stats(str(tmp_path / "nope.json"))

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_stats(str(path))


class TestRepoBaseline:
    def test_checked_in_baseline_covers_host_benchmarks(self):
        """benchmarks/baseline.json must track every host-execution bench."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        with open(os.path.join(root, "benchmarks",
                               "test_host_execution.py")) as fh:
            source = fh.read()
        declared = {line.split("(")[0].replace("def ", "").strip()
                    for line in source.splitlines()
                    if line.startswith("def test_bench_")}
        assert declared == set(stats)

    def test_vectorized_stencil_baseline_beats_sequential_10x(self):
        """ISSUE-3 acceptance: the lockstep executor's recorded baseline is
        at least 10x faster than the sequential one on the same launch.

        Checked against the committed baselines (both are measured on the
        same machine in the same `bench-compare --update` run), so the
        assertion does not depend on the speed of the machine running the
        tests."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        sequential = stats["test_bench_functional_executor_stencil"]["min"]
        vectorized = stats["test_bench_vectorized_executor_stencil"]["min"]
        assert sequential >= 10.0 * vectorized

    def test_tuned_stencil_baseline_beats_untuned_1_2x(self):
        """ISSUE-5 acceptance: the tuned launch geometry's recorded baseline
        is at least 1.2x faster than the untuned default (512, 1, 1) launch
        on the guard grid.

        Like the other cross-baseline guards this compares two committed
        baselines measured in one `bench-compare --update` run, so the
        assertion is machine-independent.  The wall-clock ratio tracks the
        modelled one because the functional simulator's cost scales with
        launched lanes — exactly what the oversized default wastes."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        untuned = stats["test_bench_untuned_stencil_launch"]["min"]
        tuned = stats["test_bench_tuned_stencil_launch"]["min"]
        assert untuned >= 1.2 * tuned

    def test_fused_babelstream_baseline_beats_unfused(self):
        """ISSUE-8 acceptance: the fusion pass's replay baseline is no
        slower than the unfused capture on the four-kernel STREAM sweep.

        The fused kernel dispatches through the lowering tier, so in
        practice the recorded margin is large; the guard only demands
        fused >= unfused so it stays robust to machine noise."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        unfused = stats["test_bench_unfused_babelstream_graph_replay"]["min"]
        fused = stats["test_bench_fused_babelstream_graph_replay"]["min"]
        assert unfused >= fused

    def test_lowered_stencil_baseline_beats_vectorized_2x(self):
        """ISSUE-8 acceptance: NumPy-codegen lowering of the stencil graph
        replays at least 2x faster than the lockstep vector executor on
        the same 32^3 capture.

        Both baselines come from one `bench-compare --update` run, so the
        ratio is machine-independent."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        vectorized = stats["test_bench_vectorized_stencil_graph_replay"]["min"]
        lowered = stats["test_bench_lowered_stencil_graph_replay"]["min"]
        assert vectorized >= 2.0 * lowered

    def test_auto_stencil_baseline_beats_vectorized_2x(self):
        """Codegen-first dispatch: the default (``auto``) stencil replay
        lowers, so its recorded baseline is at least 2x faster than the
        replay pinned to the lockstep engine on the same 32^3 capture.

        Both baselines come from one `bench-compare --update` run, so the
        ratio is machine-independent."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        vectorized = stats["test_bench_vectorized_stencil_graph_replay"]["min"]
        auto = stats["test_bench_auto_stencil_graph_replay"]["min"]
        assert vectorized >= 2.0 * auto

    @pytest.mark.parametrize("kernel",
                             ["fasten", "fasten_chunked", "eri", "dot"])
    def test_lowered_science_launch_baseline_beats_vectorized_2x(self,
                                                                 kernel):
        """Loop-vectorized codegen: each of the three kernels the lowering
        tier used to refuse (fasten's ligand x protein nest, the ERI
        primitive-quartet nest with its Fock atomics, Dot's per-block
        barrier reduction) launches at least 2x faster lowered than on the
        lockstep engine, and so does fasten over the axis budget, whose
        ligand loop runs in chunks.

        Both baselines come from one benchmark run, so the ratio is
        machine-independent."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        vectorized = stats[f"test_bench_vectorized_{kernel}_launch"]["min"]
        lowered = stats[f"test_bench_lowered_{kernel}_launch"]["min"]
        assert vectorized >= 2.0 * lowered

    def test_lowered_dot_launch_baseline_beats_vectorized_10x(self):
        """Dot's grid-stride loop runs on a trip axis and its tree
        reduction as prefix slices, so the lowered launch has no Python
        loop left: at least 10x the lockstep engine, from one run."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        vectorized = stats["test_bench_vectorized_dot_launch"]["min"]
        lowered = stats["test_bench_lowered_dot_launch"]["min"]
        assert vectorized >= 10.0 * lowered

    def test_trace_disabled_dispatch_baseline_within_2x(self):
        """ISSUE-10 acceptance: the tracing-instrumented (but disabled)
        workload-dispatch baseline stays within 2x of the plain dispatch
        baseline — the disabled path is one module-attribute read per hook
        site plus one histogram sample per run."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        plain = stats["test_bench_workload_dispatch"]["min"]
        instrumented = \
            stats["test_bench_trace_disabled_workload_dispatch"]["min"]
        assert instrumented <= 2.0 * plain

    def test_graph_replay_baseline_beats_reenqueue_2x(self):
        """ISSUE-4 acceptance: replaying a captured device graph is at least
        2x faster than re-enqueueing the same sweep point from scratch.

        Like the 10x executor guard above, this compares the two committed
        baselines (measured together in one `bench-compare --update` run),
        so the assertion is machine-independent."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        stats = load_stats(os.path.join(root, "benchmarks", "baseline.json"))
        reenqueue = stats["test_bench_graph_reenqueue_stencil_point"]["min"]
        replay = stats["test_bench_graph_replay_stencil_point"]["min"]
        assert reenqueue >= 2.0 * replay


class TestDegenerateBaseline:
    def test_zero_baseline_min_is_informational_not_a_crash(self):
        rows = compare_benchmarks({"t": {"min": 0.0, "mean": 0.0}},
                                  _trimmed(t=1.0))
        assert rows[0].status == "new"
        assert rows[0].ratio is None
        assert not rows[0].regressed
        assert "new" in rows[0].to_text()
