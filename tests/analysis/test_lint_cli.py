"""The ``repro lint`` CLI surface — the command the CI gate runs."""

from __future__ import annotations

import json

from repro.cli import build_parser, main


def test_parser_accepts_ci_gate_invocation():
    args = build_parser().parse_args(["lint", "--all", "--json"])
    assert args.command == "lint"
    assert args.lint_all and args.json and not args.no_graphs


def test_lint_all_json_is_clean(capsys):
    assert main(["lint", "--all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["kernels"] >= 8
    # each workload graph lints twice: the capture and its graph-compiler
    # optimized rewrite (the optimized variant must stay as clean)
    assert payload["summary"]["graphs"] == 8
    assert any(name.endswith("+opt") for name in payload["graphs"])
    assert payload["diagnostics"] == []
    assert "fasten_kernel" in payload["kernels"]


def test_lint_text_summary(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_single_workload_filters_graphs(capsys):
    assert main(["lint", "stencil", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # graph filter narrows the race check; kernel verification still covers
    # the full registry so a narrowed lint cannot hide a broken kernel
    assert payload["summary"]["graphs"] == 2
    assert payload["summary"]["kernels"] >= 8


def test_lint_no_graphs_skips_race_check(capsys):
    assert main(["lint", "--no-graphs", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["graphs"] == 0


def test_lint_unknown_workload_is_config_error(capsys):
    assert main(["lint", "nosuchworkload"]) == 2
    assert "lint:" in capsys.readouterr().err


def test_lint_json_zero_fills_the_full_rule_catalog(capsys):
    """The CI gate asserts on this: every rule id present, zero firings."""
    assert main(["lint", "--all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rules = payload["rules"]
    assert set(rules) == {"KV101", "KV102", "KV103", "KV104", "KV105",
                          "KV106", "GR200", "GR201", "GR202", "GR203",
                          "GR204"}
    assert all(count == 0 for count in rules.values())


def test_lint_explain_prints_rule_doc(capsys):
    assert main(["lint", "--explain", "KV106"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("KV106")
    assert "out-of-bounds" in out

    assert main(["lint", "--explain", "gr204"]) == 0
    assert "partial" in capsys.readouterr().out


def test_lint_explain_unknown_rule_exits_2(capsys):
    assert main(["lint", "--explain", "KV999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_max_warnings_gates_exit_code(capsys):
    # shipped kernels carry zero warnings, so the tightest gate passes
    assert main(["lint", "--all", "--max-warnings", "0"]) == 0
    capsys.readouterr()


def test_lint_max_warnings_fails_when_exceeded(monkeypatch, capsys):
    from repro.analysis import Diagnostic, LintReport, Severity

    report = LintReport()
    report.add(Diagnostic(rule="KV103", severity=Severity.WARNING,
                          subject="k", message="suspicious index"))
    monkeypatch.setattr("repro.analysis.run_lint",
                        lambda *a, **k: report)
    assert main(["lint", "--all", "--max-warnings", "0"]) == 1
    assert "exceed" in capsys.readouterr().err
    # the same report passes once the budget admits one warning
    assert main(["lint", "--all", "--max-warnings", "1"]) == 0
