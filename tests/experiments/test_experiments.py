"""Integration tests: every paper table/figure experiment runs and passes
its shape checks against the paper's reported results."""

import importlib

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError, VerificationError
from repro.experiments import EXPERIMENTS, list_experiments, run_experiment

VERIFY_CHECK = "functional verification on the simulator"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(list_experiments()) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "table2", "table3", "table4", "table5",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_modules_expose_metadata(self):
        for key, module in EXPERIMENTS.items():
            assert module.EXPERIMENT_ID == key
            assert isinstance(module.DESCRIPTION, str) and module.DESCRIPTION


class TestFigureExperiments:
    def test_fig2_roofline(self):
        result = run_experiment("fig2")
        assert result.all_passed
        assert len(result.tables[0]) == 4

    def test_fig3_stencil(self):
        result = run_experiment("fig3")
        assert result.all_passed
        effs = result.tables[0].column("efficiency")
        assert all(0.5 < e <= 1.2 for e in effs)

    def test_fig4_babelstream(self):
        result = run_experiment("fig4")
        assert result.all_passed
        assert len(result.tables[0]) == 10   # 5 ops x 2 platforms

    def test_fig5_sass(self):
        result = run_experiment("fig5")
        assert result.all_passed
        assert result.extra_text              # the side-by-side listing

    def test_fig6_minibude_h100(self):
        result = run_experiment("fig6")
        assert result.all_passed
        assert len(result.tables) == 2        # wg=8 and wg=64 panels

    def test_fig7_minibude_mi300a(self):
        result = run_experiment("fig7")
        assert result.all_passed
        assert result.experiment_id == "fig7"


class TestTableExperiments:
    def test_table2(self):
        result = run_experiment("table2")
        assert result.all_passed

    def test_table3(self):
        result = run_experiment("table3")
        assert result.all_passed

    def test_table4(self):
        result = run_experiment("table4")
        assert result.all_passed
        rows = result.tables[0].rows
        assert {row["natoms"] for row in rows} == {64, 128, 256}

    def test_table5(self):
        result = run_experiment("table5")
        assert result.all_passed
        phi_rows = [r for r in result.tables[0].rows if r["configuration"] == "Φ"]
        assert len(phi_rows) == 4


class TestRendering:
    def test_results_render_to_text_and_markdown(self):
        result = run_experiment("fig5")
        assert "fig5" in result.to_text()
        assert result.to_markdown().startswith("## fig5")
        assert result.to_json()


class TestVerification:
    """``verify=True`` adds one check that every verified run passed."""

    #: experiments that accept ``verify`` -> (workload module, comparison)
    VERIFIERS = {
        "fig3": ("stencil", "stencil_error"),
        "fig4": ("babelstream", "babelstream_errors"),
        "table4": ("hartreefock", "fock_error"),
        "fig6": ("minibude", "fasten_error"),
        "fig7": ("minibude", "fasten_error"),
    }

    @pytest.mark.parametrize("experiment", sorted(VERIFIERS))
    def test_failed_verification_fails_the_experiment(self, monkeypatch,
                                                      capsys, experiment):
        module, verifier = self.VERIFIERS[experiment]

        def broken(*args, **kwargs):
            raise VerificationError("injected mismatch")

        monkeypatch.setattr(
            importlib.import_module(f"repro.workloads.{module}"), verifier,
            broken)
        result = run_experiment(experiment, verify=True)
        failed = [c for c in result.comparisons if not c.passed]
        assert [c.label for c in failed] == [VERIFY_CHECK]
        assert "injected mismatch" in failed[0].detail
        assert main(["run", experiment, "--verify"]) == 1
        assert f"[MISMATCH] {VERIFY_CHECK}" in capsys.readouterr().out

    def test_passing_verification_is_one_check(self):
        result = run_experiment("table4", verify=True)
        assert result.all_passed
        checks = [c for c in result.comparisons if c.label == VERIFY_CHECK]
        assert len(checks) == 1 and checks[0].detail == "1 verified run(s)"

    def test_no_check_without_verify(self):
        for experiment in self.VERIFIERS:
            labels = [c.label for c in run_experiment(experiment).comparisons]
            assert VERIFY_CHECK not in labels
