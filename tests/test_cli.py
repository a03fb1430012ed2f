"""Tests for the command-line interface."""

import functools
import json
from pathlib import Path

import pytest

from repro import __version__
from repro import cli as cli_mod
from repro import experiments as experiments_mod
from repro.cli import accepts_option, build_parser, main
from repro.core.errors import ConfigurationError
from repro.core.memo import memo_infos


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_options(self):
        args = build_parser().parse_args(["run", "fig3", "table4", "--full",
                                          "--markdown"])
        assert args.ids == ["fig3", "table4"]
        assert args.full and args.markdown and not args.verify


class TestMain:
    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table5" in out
        assert main(["list"]) == 0
        assert capsys.readouterr().out == out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends" in out and "mojo" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "H100" in out and "MI300A" in out and "fast-math" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "[ok]" in out

    def test_run_markdown_output(self, capsys):
        assert main(["run", "fig5", "--markdown"]) == 0
        assert "## fig5" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        # a valid id before an unknown one runs nothing
        assert main(["run", "FIG5", "bogus", "fig98"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "['bogus', 'fig98']" in err

    def test_run_ids_match_case_insensitively(self, capsys):
        assert main(["run", "FIG5"]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"repro {__version__}\n"


class TestVerifyDetection:
    """`run --verify` probes the experiment signature via inspect, not
    ``__code__.co_varnames`` (which breaks on wrapped/**kwargs runners)."""

    def test_plain_keyword(self):
        def run(*, quick=True, verify=False):
            return None
        assert accepts_option(run, "verify")
        assert not accepts_option(run, "bogus")

    def test_kwargs_runner(self):
        def run(**options):
            return None
        assert accepts_option(run, "verify")

    def test_wrapped_runner(self):
        def inner(*, quick=True, verify=False):
            return None

        @functools.wraps(inner)
        def run(*args, **kwargs):
            return inner(*args, **kwargs)

        # co_varnames of the wrapper sees neither name; the signature does.
        assert "verify" not in run.__code__.co_varnames
        assert accepts_option(run, "verify")

    def test_positional_only_and_builtins(self):
        assert not accepts_option(len, "verify")

    def test_positional_only_parameter_not_keyword_passable(self):
        namespace = {}
        exec("def run(verify, /, quick=True):\n    return None", namespace)
        assert not accepts_option(namespace["run"], "verify")
        assert accepts_option(namespace["run"], "quick")


class TestWorkloadsCommand:
    def test_lists_all_four_with_schemas(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("stencil", "babelstream", "minibude", "hartreefock"):
            assert name in out
        assert "--param L=512" in out and "primary metric" in out

    def test_json_schema_export(self, capsys):
        assert main(["workloads", "--json"]) == 0
        schemas = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in schemas] == [
            "babelstream", "hartreefock", "minibude", "stencil"]
        assert all("params" in s and "primary_metric" in s for s in schemas)


class TestBenchCommand:
    def test_parser_options(self):
        args = build_parser().parse_args(
            ["bench", "stencil", "--gpu", "mi300a", "--backend", "hip",
             "--param", "L=64", "--param", "seed=7", "--repeats", "3",
             "--no-verify", "--json"])
        assert args.workload == "stencil" and args.gpu == "mi300a"
        assert args.param == ["L=64", "seed=7"] and args.repeats == 3
        assert args.no_verify and args.json

    def test_text_output(self, capsys):
        code = main(["bench", "stencil", "--param", "L=64", "--no-verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bandwidth_gbs" in out and "metrics:" in out
        assert "verification: skipped" in out

    def test_markdown_output(self, capsys):
        code = main(["bench", "stencil", "--param", "L=64", "--no-verify",
                     "--markdown"])
        assert code == 0
        assert "| workload |" in capsys.readouterr().out

    @pytest.mark.parametrize("workload,params", [
        ("stencil", ["--param", "L=64"]),
        ("babelstream", ["--param", "n=262144"]),
        ("minibude", ["--param", "nposes=1024", "--param", "ppwi=2",
                      "--param", "wgsize=8"]),
        ("hartreefock", ["--param", "natoms=16"]),
    ])
    def test_json_schema_identical_for_all_workloads(self, capsys, workload,
                                                     params):
        code = main(["bench", workload, "--gpu", "h100", "--backend", "mojo",
                     "--repeats", "3", "--no-verify", "--json"] + params)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["metrics", "primary_metric", "provenance",
                                   "request", "samples", "schema", "table",
                                   "timing", "verification", "workload"]
        assert payload["workload"] == workload
        assert payload["table"]["columns"][0] == "workload"
        assert len(payload["table"]["rows"]) == 1

    def test_streams_flag_reaches_the_request(self, capsys):
        code = main(["bench", "stencil", "--param", "L=64", "--streams", "3",
                     "--no-verify", "--no-cache", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["request"]["streams"] == 3

    def test_streams_flag_default_is_one(self):
        args = build_parser().parse_args(["bench", "stencil"])
        assert args.streams == 1

    def test_invalid_streams_is_clean_error(self, capsys):
        code = main(["bench", "stencil", "--streams", "0", "--no-cache"])
        assert code == 2
        assert "streams" in capsys.readouterr().err

    def test_verified_bench_exits_zero(self, capsys):
        code = main(["bench", "hartreefock", "--param", "natoms=16",
                     "--repeats", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["passed"] is True
        assert payload["verification"]["max_rel_error"] < 1e-9

    def test_unknown_workload_is_clean_error(self, capsys):
        assert main(["bench", "heat3d"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_param_is_clean_error(self, capsys):
        assert main(["bench", "stencil", "--param", "L=many"]) == 2
        assert "expects int" in capsys.readouterr().err

    def test_malformed_param_is_clean_error(self, capsys):
        assert main(["bench", "stencil", "--param", "L:64"]) == 2
        assert "K=V" in capsys.readouterr().err

    def test_unsupported_precision_is_clean_error(self, capsys):
        assert main(["bench", "minibude", "--precision", "float64"]) == 2
        assert "precisions" in capsys.readouterr().err

    def test_launch_time_repro_error_is_clean_config_error(self, capsys):
        # invalid values that only fail inside the engine (LaunchError, …)
        # must exit 2 like any config error, not escape as a traceback
        code = main(["bench", "minibude", "--param", "nposes=100",
                     "--param", "ppwi=3", "--no-verify"])
        assert code == 2
        assert "divisible" in capsys.readouterr().err

    def test_single_evaluation_sampling_is_announced(self, capsys):
        assert main(["bench", "hartreefock", "--param", "natoms=16",
                     "--repeats", "50", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "single model evaluation" in out


class TestReportCommand:
    def test_writes_markdown_document(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "fig5", "--write", str(target)]) == 0
        assert "wrote 1 experiment report" in capsys.readouterr().out
        document = target.read_text()
        assert document.startswith("# EXPERIMENTS")
        assert "| fig5 |" in document and "## fig5" in document

    def test_prints_to_stdout_without_write(self, capsys):
        assert main(["report", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "# EXPERIMENTS" in out and "## fig5" in out

    def test_unknown_id_is_clean_error(self, capsys):
        assert main(["report", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_all_keyword_matches_run_subcommand(self, tmp_path, capsys):
        target = tmp_path / "all.md"
        assert main(["report", "all", "--write", str(target)]) == 0
        assert "wrote 10 experiment report" in capsys.readouterr().out

    def test_document_ends_with_tuned_portability_section(self, tmp_path):
        target = tmp_path / "tuned.md"
        assert main(["report", "fig5", "--write", str(target)]) == 0
        document = target.read_text()
        assert "## Tuned performance portability" in document
        assert "Φ (all)" in document

    def test_no_tuning_skips_the_section(self, tmp_path):
        target = tmp_path / "plain.md"
        assert main(["report", "fig5", "--no-tuning",
                     "--write", str(target)]) == 0
        assert "Tuned performance portability" not in target.read_text()

    def test_document_ends_with_graph_compiler_section(self, tmp_path):
        target = tmp_path / "graph.md"
        assert main(["report", "fig5", "--no-tuning",
                     "--write", str(target)]) == 0
        document = target.read_text()
        assert document.rstrip().endswith(
            "| stencil | 3 → 3 | 1 → 1 | none | 0 | 1/1 | clean |")
        assert "Observability" not in document

    def test_no_graphopt_skips_the_section(self, tmp_path):
        target = tmp_path / "plain.md"
        assert main(["report", "fig5", "--no-graphopt",
                     "--write", str(target)]) == 0
        assert "Graph compiler" not in target.read_text()


class TestTraceCommand:
    def test_summary_lists_the_workload_run_span(self, capsys):
        assert main(["trace", "stencil"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("stencil on h100/mojo: ")
        assert "| span | wall (ms) | modelled (ms) |" in out
        assert "| `workload.run` |" in out

    def test_output_writes_what_json_prints(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["trace", "stencil", "--json",
                     "--output", str(target)]) == 0
        printed = capsys.readouterr().out
        assert target.read_text() == printed
        assert json.loads(printed)["traceEvents"]


class TestTuneCommand:
    GUARD = ["--param", "L=64"]

    def _tune(self, tmp_path, *extra):
        return main(["tune", "stencil", "--gpu", "h100", "--backend", "mojo",
                     "--budget", "16", "--tune-dir", str(tmp_path),
                     *self.GUARD, *extra])

    def test_parser_accepts_tune_options(self):
        args = build_parser().parse_args(
            ["tune", "stencil", "--budget", "8", "--strategy", "random",
             "--seed", "3", "--force", "--no-prune", "--json",
             "--tune-dir", "/tmp/t"])
        assert args.command == "tune" and args.budget == 8
        assert args.strategy == "random" and args.force and args.no_prune

    def test_search_persists_then_second_invocation_is_a_db_hit(
            self, tmp_path, capsys):
        """ISSUE-5 acceptance: tune persists a record; repeating the exact
        invocation is a database hit that runs no search."""
        assert self._tune(tmp_path) == 0
        first = capsys.readouterr().out
        assert "pruned by the occupancy/roofline models" in first
        assert "modelled vs measured ranking" in first
        assert (tmp_path / "records").exists()

        assert self._tune(tmp_path) == 0
        second = capsys.readouterr().out
        assert "tuning db: hit" in second and "no search" in second
        assert "ranking" not in second  # no search output

    def test_force_searches_despite_hit(self, tmp_path, capsys):
        assert self._tune(tmp_path) == 0
        capsys.readouterr()
        assert self._tune(tmp_path, "--force") == 0
        assert "modelled vs measured ranking" in capsys.readouterr().out

    def test_json_output_schema(self, tmp_path, capsys):
        assert self._tune(tmp_path, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "search"
        assert payload["prune"]["pruned"] >= 1
        assert payload["best"]["measured_ms"] > 0
        assert payload["speedup"] >= 1.2
        # DB hit payload carries the persisted record
        assert self._tune(tmp_path, "--json") == 0
        hit = json.loads(capsys.readouterr().out)
        assert hit["source"] == "db-hit"
        assert hit["record"]["config"] == payload["best"]["config"]

    def test_unknown_workload_is_clean_error(self, tmp_path, capsys):
        assert main(["tune", "warpfield", "--tune-dir", str(tmp_path)]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bench_tuned_applies_persisted_winner(self, tmp_path, capsys):
        from repro.tuning import configure_tuning_db

        assert self._tune(tmp_path) == 0
        capsys.readouterr()
        try:
            argv = ["bench", "stencil", "--param", "L=64", "--no-verify",
                    "--tuned", "--tune-dir", str(tmp_path)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "tuning: applied" in out and "block_shape=" in out
            assert "result cache: bypassed (tuned request)" in out
        finally:
            configure_tuning_db(disk=False)

    def test_bench_tuned_miss_reports_untuned_run(self, tmp_path, capsys):
        from repro.tuning import configure_tuning_db

        try:
            argv = ["bench", "stencil", "--param", "L=48", "--no-verify",
                    "--tuned", "--tune-dir", str(tmp_path)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "tuning: not applied (db-miss)" in out
        finally:
            configure_tuning_db(disk=False)

    def test_tune_dir_without_tuned_rejected(self, capsys):
        assert main(["bench", "stencil", "--tune-dir", "/tmp/x"]) == 2
        assert "--tune-dir only applies with --tuned" in \
            capsys.readouterr().err


class TestBenchCompare:
    @staticmethod
    def _stats_file(path, **named):
        import json
        path.write_text(json.dumps(
            {name: {"min": t, "mean": t * 1.1} for name, t in named.items()}))
        return str(path)

    def test_parser_accepts_bench_compare(self):
        args = build_parser().parse_args(
            ["bench-compare", "--baseline", "b.json", "--current", "c.json",
             "--threshold", "3.0"])
        assert args.command == "bench-compare"
        assert args.threshold == 3.0 and not args.update

    def test_ok_when_within_threshold(self, tmp_path, capsys):
        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        cur = self._stats_file(tmp_path / "cur.json", bench_a=1.5)
        assert main(["bench-compare", "--baseline", base, "--current", cur]) == 0
        assert "[     ok]" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path, capsys):
        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        cur = self._stats_file(tmp_path / "cur.json", bench_a=3.0)
        assert main(["bench-compare", "--baseline", base, "--current", cur]) == 1
        captured = capsys.readouterr()
        assert "fail" in captured.out and "regressed" in captured.err

    def test_threshold_option_respected(self, tmp_path):
        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        cur = self._stats_file(tmp_path / "cur.json", bench_a=3.0)
        assert main(["bench-compare", "--baseline", base, "--current", cur,
                     "--threshold", "4.0"]) == 0

    def test_update_writes_new_baseline(self, tmp_path):
        import json
        cur = self._stats_file(tmp_path / "cur.json", bench_a=0.5)
        target = tmp_path / "new_baseline.json"
        assert main(["bench-compare", "--baseline", str(target),
                     "--current", cur, "--update"]) == 0
        assert json.loads(target.read_text())["bench_a"]["min"] == 0.5

    def test_missing_baseline_is_a_clean_error(self, tmp_path, capsys):
        cur = self._stats_file(tmp_path / "cur.json", bench_a=1.0)
        code = main(["bench-compare", "--baseline", str(tmp_path / "none.json"),
                     "--current", cur])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_threshold_is_a_clean_error(self, tmp_path, capsys):
        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        code = main(["bench-compare", "--baseline", base, "--current", base,
                     "--threshold", "0.5"])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_parser_accepts_quick(self):
        args = build_parser().parse_args(["bench-compare", "--quick"])
        assert args.quick is True

    def test_quick_update_combination_refused(self, tmp_path, capsys):
        """--quick --update would rewrite the baseline with only the fast
        subset, silently dropping the reference-benchmark entries."""
        code = main(["bench-compare", "--quick", "--update",
                     "--baseline", str(tmp_path / "b.json")])
        assert code == 2
        assert "--quick" in capsys.readouterr().err

    def test_quick_subset_expression_matches_fast_benchmarks(self):
        # The -k expression must select the executor/dispatch benches and
        # exclude the multi-second reference benches.
        from repro.cli import QUICK_BENCH_EXPR

        selected = [
            "test_bench_functional_executor_stencil",
            "test_bench_vectorized_executor_stencil",
            "test_bench_vectorized_babelstream_dot",
            "test_bench_vectorized_stencil_probe_replay",
            "test_bench_workload_dispatch",
            "test_bench_cli_dispatch",
            *(f"test_bench_{mode}_{kernel}_launch"
              for mode in ("lowered", "vectorized")
              for kernel in ("fasten", "eri", "dot")),
        ]
        excluded = [
            "test_bench_minibude_reference_energies",
            "test_bench_hartreefock_fock_quadruple_16",
            "test_bench_stencil_reference_l128",
        ]
        import re
        terms = [t for t in re.split(r"\s+or\s+", QUICK_BENCH_EXPR) if t]
        for name in selected:
            assert any(term in name for term in terms), name
        for name in excluded:
            assert not any(term in name for term in terms), name

    def test_report_includes_cache_counters(self, tmp_path, capsys):
        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        cur = self._stats_file(tmp_path / "cur.json", bench_a=1.0)
        assert main(["bench-compare", "--baseline", base, "--current", cur]) == 0
        out = capsys.readouterr().out
        # With --current no subprocess runs; this process's counters print.
        assert "memo compile (this process):" in out
        assert "memo result (this process):" in out

    def test_cache_counters_read_from_benchmark_subprocess_export(
            self, tmp_path, capsys, monkeypatch):
        """The counters must come from the process that ran the benchmarks
        (the pytest subprocess), not from the CLI parent where they are
        always zero."""
        from repro import cli as cli_mod

        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        exported = {"memo": {
            "compile": {"hits": 7, "misses": 3, "entries": 3, "bytes": 0,
                        "disk_hits": 0},
            "result": {"hits": 2, "misses": 1, "entries": 1, "bytes": 0,
                       "disk_hits": 1}}}

        def fake_run(bench_file, *, quick=False, cache_stats_path=None):
            assert cache_stats_path is not None
            with open(cache_stats_path, "w", encoding="utf-8") as fh:
                json.dump(exported, fh)
            out = tmp_path / "current.json"
            out.write_text(json.dumps({"bench_a": {"min": 1.0, "mean": 1.1}}))
            return str(out)

        monkeypatch.setattr(cli_mod, "_run_host_benchmarks", fake_run)
        assert main(["bench-compare", "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "memo compile (benchmark run): 7 hit(s), 3 miss(es)" in out
        assert "memo result (benchmark run): 2 hit(s), 1 miss(es)" in out

    def test_every_memo_reports_one_line(self, tmp_path, capsys,
                                         monkeypatch):
        from repro import cli as cli_mod

        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        exported = {"memo": {"lane_geometry": {"hits": 9, "misses": 2,
                                               "entries": 2, "bytes": 4096,
                                               "disk_hits": 0},
                             "result": {"hits": 5, "misses": 1,
                                        "entries": 1, "bytes": 0,
                                        "disk_hits": 1}}}

        def fake_run(bench_file, *, quick=False, cache_stats_path=None):
            with open(cache_stats_path, "w", encoding="utf-8") as fh:
                json.dump(exported, fh)
            out = tmp_path / "current.json"
            out.write_text(json.dumps({"bench_a": {"min": 1.0, "mean": 1.1}}))
            return str(out)

        monkeypatch.setattr(cli_mod, "_run_host_benchmarks", fake_run)
        assert main(["bench-compare", "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert ("memo lane_geometry (benchmark run): 9 hit(s), 2 miss(es), "
                "2 entries, 4096 bytes, 0 disk hit(s)") in out
        assert ("memo result (benchmark run): 5 hit(s), 1 miss(es), "
                "1 entries, 0 bytes, 1 disk hit(s)") in out
        assert out.count("(benchmark run)") == 2

    def test_this_process_reports_live_memos(self, tmp_path, capsys):
        import repro.gpu.vector_executor  # noqa: F401  (registers its memo)

        base = self._stats_file(tmp_path / "base.json", bench_a=1.0)
        cur = self._stats_file(tmp_path / "cur.json", bench_a=1.0)
        assert main(["bench-compare", "--baseline", base, "--current", cur]) == 0
        assert "memo lane_geometry (this process): " in capsys.readouterr().out


class TestBenchExecutorAndCache:
    def test_parser_accepts_executor_and_cache_flags(self):
        args = build_parser().parse_args(
            ["bench", "stencil", "--executor", "sequential", "--no-cache",
             "--cache-dir", "/tmp/x"])
        assert args.executor == "sequential"
        assert args.no_cache and args.cache_dir == "/tmp/x"

    def test_invalid_executor_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "stencil", "--executor", "warp"])

    def test_executor_recorded_in_request_payload(self, capsys, tmp_path):
        code = main(["bench", "stencil", "--param", "L=32", "--repeats", "2",
                     "--executor", "sequential", "--json",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["request"]["executor"] == "sequential"
        assert payload["verification"]["passed"] is True

    def test_repeated_bench_hits_disk_cache(self, capsys, tmp_path):
        argv = ["bench", "stencil", "--param", "L=32", "--repeats", "2",
                "--no-verify", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "result cache: miss (stored)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "result cache: hit (disk)" in second

    def test_no_cache_bypasses_store(self, capsys, tmp_path):
        argv = ["bench", "stencil", "--param", "L=32", "--repeats", "2",
                "--no-verify", "--no-cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "result cache: disabled (--no-cache)" in capsys.readouterr().out
        assert not (tmp_path / "results").exists()

    def test_cached_and_fresh_results_agree(self, capsys, tmp_path):
        argv = ["bench", "babelstream", "--param", "n=4096", "--repeats", "2",
                "--no-verify", "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        cached = json.loads(capsys.readouterr().out)
        assert cached["metrics"] == fresh["metrics"]
        assert sorted(cached) == sorted(fresh)


class TestFaultInjectionCli:
    def test_bench_inject_bypasses_the_result_cache(self, capsys, tmp_path):
        plan = tmp_path / "corrupt.json"
        plan.write_text(json.dumps(
            {"seed": 1, "rules": [{"site": "corrupt.d2h", "indices": [0]}]}))
        argv = ["bench", "stencil", "--param", "L=18", "--repeats", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + ["--inject", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "verification: FAILED" in out
        assert "result cache: bypassed (--inject)" in out
        # the faulted verdict was never stored: a clean run is a miss
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "verification: passed" in out
        assert "result cache: miss (stored)" in out

    def test_sweep_inject_then_resume(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        cache = tmp_path / "cache"
        argv = ["sweep", "stencil", "--param", "L=18,20,22,24", "--repeats",
                "1", "--checkpoint", journal, "--json"]
        plan = Path(__file__).resolve().parents[1] / "examples" \
            / "fault_plan.json"
        assert main(argv + ["--inject", str(plan), "--on-error", "skip",
                            "--cache-dir", str(cache)]) == 1
        first = json.loads(capsys.readouterr().out)["summary"]
        # every rule of the committed plan fires (as the CI chaos smoke
        # asserts): an upload, a launch and a download check fail
        sites = {r["site"] for r in json.loads(plan.read_text())["rules"]}
        assert sites <= set(first["faults"]["fired"]), first["faults"]
        assert first["failures"] == 2
        assert first["verification_failures"] == 1
        assert not cache.exists()           # --inject bypassed the cache
        clean_entries = sum(
            1 for line in open(journal) if json.loads(line)["status"] == "ok")
        assert main(argv + ["--resume", "--no-cache"]) == 0
        second = json.loads(capsys.readouterr().out)["summary"]
        assert second["failures"] == second["verification_failures"] == 0
        assert second["resumed"] == clean_entries

    def test_sweep_cache_dir_leaves_the_default_cache_alone(self, capsys,
                                                            tmp_path):
        from repro.workloads.cache import default_result_cache

        before = default_result_cache()
        disk_dir = before.disk_dir
        cache = tmp_path / "cache"
        argv = ["sweep", "stencil", "--param", "L=18", "--repeats", "1",
                "--no-verify", "--cache-dir", str(cache)]
        assert main(argv) == 0
        capsys.readouterr()
        assert default_result_cache() is before
        assert default_result_cache().disk_dir == disk_dir
        # the invocation's own cache stored the point on disk
        assert list((cache / "results").glob("*.json"))


#: ``repro --help`` at 80 columns, as printed before the command table
TOP_LEVEL_HELP = """\
usage: repro-experiments [-h] [--version]
                         {list,run,info,workloads,bench,sweep,tune,report,lint,graph,trace,bench-compare}
                         ...

Regenerate the tables and figures of the Mojo GPU science-kernels paper on the
simulated substrate.

positional arguments:
  {list,run,info,workloads,bench,sweep,tune,report,lint,graph,trace,bench-compare}
    list                list available experiments
    run                 run experiments and print their reports
    info                show simulated GPUs and backends
    workloads           list registered workloads and their parameter schemas
    bench               run one workload through the unified Workload API
    sweep               run a workload over a cartesian parameter sweep, with
                        optional checkpointing and fault injection
    tune                search a workload's launch space and persist the
                        winner
    report              render experiment reports as one markdown document
    lint                statically verify kernels and race-check workload
                        graphs
    graph               run the graph compiler over a workload's captured
                        device graph and report what the passes did
    trace               run one workload under the tracing collector and
                        export a Chrome/Perfetto timeline
    bench-compare       compare host-execution benchmarks against the stored
                        baseline

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
TOP_LEVEL_USAGE = "".join(TOP_LEVEL_HELP.splitlines(True)[:3])

#: one argv per subcommand: defaults, append options, nargs="*" positionals
PARITY_ARGVS = [
    ["list"],
    ["run", "fig3", "table4", "--full", "--verify"],
    ["info"],
    ["workloads", "--json"],
    ["bench", "stencil", "--param", "L=64", "--param", "seed=7",
     "--executor", "lowered", "--markdown"],
    ["sweep", "stencil", "--param", "L=16,32", "--on-error", "skip",
     "--workers", "2"],
    ["tune", "minibude", "--strategy", "random", "--no-prune"],
    ["report"],
    ["lint", "stencil", "babelstream", "--max-warnings", "0"],
    ["graph", "--all", "--passes", "fuse"],
    ["trace", "stencil", "--streams", "2"],
    ["bench-compare", "--threshold", "3"],
]


def _memoised_parser():
    """The parser ``main`` parses with."""
    return build_parser()


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, SystemExit included."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommandTable:
    def test_parity_argvs_cover_the_table(self):
        assert [argv[0] for argv in PARITY_ARGVS] == list(cli_mod.COMMANDS)

    @pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda a: a[0])
    def test_memoised_parser_matches_a_fresh_parser(self, argv):
        # the memoised parser has already parsed the earlier argvs
        memoised = _memoised_parser().parse_args(argv)
        assert memoised == cli_mod._new_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [name, "--help"] for name in cli_mod.COMMANDS])
    def test_help_renders_for_every_command(self, capsys, argv):
        code, out, err = _outcome(capsys, main, argv)
        assert (code, err) == (0, "") and out.startswith("usage: ")

    def test_top_level_help_is_unchanged(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in (["--help"], ["-h", "bench"]):
            assert _outcome(capsys, main, argv) == (0, TOP_LEVEL_HELP, "")

    def test_unknown_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = _outcome(capsys, main, ["nosuch"])
        assert (code, out) == (2, "")
        assert err.startswith(TOP_LEVEL_USAGE)
        assert "error: argument command: invalid choice: 'nosuch'" in err

    @pytest.mark.parametrize("argv", [["bench", "stencil", "extra"],
                                      ["list", "extra"],
                                      ["bench", "stencil", "--executor", "x"]])
    def test_memoised_parser_errors_read_as_a_fresh_parsers(
            self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full = _outcome(capsys, lambda a: cli_mod._new_parser().parse_args(a),
                        argv)
        assert full[0] == 2
        assert _outcome(capsys, main, argv) == full

    def test_append_defaults_do_not_leak_between_calls(self, capsys,
                                                       monkeypatch):
        seen = []
        bench = cli_mod.COMMANDS["bench"]

        def record(args):
            seen.append(args)
            return bench.handler(args)

        monkeypatch.setitem(cli_mod.COMMANDS, "bench",
                            bench._replace(handler=record))
        model_only = ["--no-verify", "--no-cache", "--json"]
        assert main(["bench", "stencil", "--param", "L=16", *model_only]) == 0
        assert json.loads(capsys.readouterr().out)["request"]["params"]["L"] \
            == 16
        assert main(["bench", "stencil", *model_only]) == 0
        assert json.loads(capsys.readouterr().out)["request"]["params"]["L"] \
            != 16
        assert seen[0].param == ["L=16"] and seen[1].param == []
        parser = _memoised_parser()
        assert parser.parse_args(["bench", "stencil"]).param == []

    def test_main_calls_build_parser_on_every_invocation(self, capsys,
                                                         monkeypatch):
        # a wrapper of build_parser (a profiler's layer span) sees every
        # parse, memo hit or not
        calls = []
        real = cli_mod.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli_mod, "build_parser", counting)
        assert main(["info"]) == 0 and main(["info"]) == 0
        assert len(calls) == 2 and real() is real()

    def test_parser_memo_misses_once_then_hits(self, capsys):
        cli_mod.PARSER_MEMO.clear()
        assert main(["info"]) == 0
        info = memo_infos()["cli_parser"]
        assert (info["misses"], info["hits"]) == (1, 0)
        assert main(["info"]) == 0 and main(["info"]) == 0
        info = memo_infos()["cli_parser"]
        assert (info["misses"], info["hits"], info["entries"]) == (1, 2, 1)

    @pytest.mark.parametrize("command", ["report", "run"])
    def test_repro_error_exits_2_for_every_command(self, capsys, monkeypatch,
                                                    command):
        def fail(*args, **kwargs):
            raise ConfigurationError("no such experiment model")

        monkeypatch.setattr(experiments_mod, "run_experiment", fail)
        assert main([command, "fig5"]) == 2
        assert capsys.readouterr().err == \
            f"{command}: no such experiment model\n"

    @pytest.mark.parametrize("name", ["bench", "sweep", "trace"])
    def test_executor_option_reads_the_workload_modes(self, capsys, name):
        from repro.workloads import EXECUTOR_MODES

        parser = _memoised_parser()
        for mode in EXECUTOR_MODES:
            argv = [name, "stencil", "--executor", mode]
            assert parser.parse_args(argv).executor == mode
        code, out, _ = _outcome(capsys, main, [name, "--help"])
        assert code == 0 and "{" + ",".join(EXECUTOR_MODES) + "}" in out
        assert "lowered is an accepted alias of auto" in " ".join(out.split())
