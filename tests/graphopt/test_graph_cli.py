"""The ``repro graph`` CLI surface — the graph-compiler CI gate command."""

from __future__ import annotations

import json

from repro.cli import build_parser, main


def test_parser_accepts_ci_gate_invocation():
    args = build_parser().parse_args(["graph", "--all", "--passes", "all",
                                      "--json"])
    assert args.command == "graph"
    assert args.graph_all and args.json
    assert args.passes == "all"


def test_graph_single_workload_json(capsys):
    assert main(["graph", "babelstream", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.graphopt-report/v1"
    assert payload["passes"] == ["elide", "fuse"]
    (entry,) = payload["graphs"]
    assert entry["workload"] == "babelstream"
    assert entry["kernels_before"] == 4 and entry["kernels_after"] == 1
    assert entry["fused"][0]["parts"] == ["copy_kernel", "mul_kernel",
                                          "add_kernel", "triad_kernel"]
    assert entry["lint_clean"] is True
    # the surviving fused kernel reports its lowering outcome
    assert all(low["lowered"] for low in entry["lowering"])


def test_graph_all_covers_registry_and_exits_clean(capsys):
    assert main(["graph", "--all", "--passes", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    workloads = {entry["workload"] for entry in payload["graphs"]}
    assert {"babelstream", "stencil", "minibude", "hartreefock"} <= workloads
    for entry in payload["graphs"]:
        if entry.get("graph") is not None:
            assert entry["lint_clean"] is True


def test_graph_text_rendering_mentions_fusion(capsys):
    assert main(["graph", "babelstream"]) == 0
    out = capsys.readouterr().out
    assert "fused:" in out
    assert "optimized graph lint: clean" in out


def test_graph_subset_of_passes(capsys):
    assert main(["graph", "babelstream", "--passes", "elide", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] == ["elide"]
    (entry,) = payload["graphs"]
    assert entry["fused"] == []  # fusion not requested
    assert entry["kernels_after"] == entry["kernels_before"]


def test_graph_output_writes_payload_file(tmp_path, capsys):
    out_path = tmp_path / "graphopt.json"
    assert main(["graph", "stencil", "--json",
                 "--output", str(out_path)]) == 0
    on_disk = json.loads(out_path.read_text())
    assert on_disk["schema"] == "repro.graphopt-report/v1"
    assert on_disk == json.loads(capsys.readouterr().out)


def test_graph_unknown_workload_is_config_error(capsys):
    assert main(["graph", "nosuchworkload"]) == 2
    assert "graph:" in capsys.readouterr().err


def test_graph_unknown_pass_is_config_error(capsys):
    for passes in ("vectorize", "hoist"):
        assert main(["graph", "babelstream", "--passes", passes]) == 2
        assert "graph:" in capsys.readouterr().err


def test_graph_requires_a_target(capsys):
    assert main(["graph"]) == 2


def test_graph_rejects_both_name_and_all(capsys):
    assert main(["graph", "stencil", "--all"]) == 2


def test_report_section_matches_graph_json(tmp_path, capsys):
    """The EXPERIMENTS.md section shows what ``repro graph --all --json``
    reports: one entry builder feeds both."""
    assert main(["graph", "--all", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["graphs"]
    target = tmp_path / "report.md"
    assert main(["report", "fig5", "--no-tuning",
                 "--write", str(target)]) == 0
    section = target.read_text().split("## Graph compiler: modelled rewrite",
                                       1)[1]
    cells = [line.strip("| ").split(" | ") for line in section.splitlines()
             if line.startswith("| ")]
    rows = {row[0]: row for row in cells[1:]}
    assert sorted(rows) == sorted(entry["workload"] for entry in entries)
    for entry in entries:
        row = rows[entry["workload"]]
        lowered = sum(low["lowered"] for low in entry["lowering"])
        assert row[1:3] == [
            f"{entry['ops_before']} → {entry['ops_after']}",
            f"{entry['kernels_before']} → {entry['kernels_after']}"]
        assert row[5:] == [f"{lowered}/{len(entry['lowering'])}",
                           "clean" if entry["lint_clean"] else "ERRORS"]
