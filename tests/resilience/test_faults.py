"""Deterministic fault injection: plans, schedules, hooks, zero overhead."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, DeviceError, LaunchError
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    active_injector,
    install_fault_plan,
)
from repro.resilience import faults as faults_mod
from repro.resilience.faults import FAULT_SITES, corrupt_array

from chaos_utils import stencil_request


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(site="transfer.sideways")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultRule(site="launch", probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule(site="launch", probability=-0.1)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(site="launch", indices=[-1])

    def test_max_faults_and_latency_validated(self):
        with pytest.raises(ConfigurationError):
            FaultRule(site="launch", max_faults=0)
        # nothing observes an injected sleep, so there are no latency sites
        for site in ("latency", "latency.vectorized", "latency.lowered"):
            with pytest.raises(ConfigurationError, match="unknown fault site"):
                FaultPlan.loads(f'{{"rules": [{{"site": "{site}"}}]}}')
        with pytest.raises(ConfigurationError, match="latency_ms"):
            FaultRule.from_dict({"site": "launch", "latency_ms": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule.from_dict({"site": "launch", "when": "always"})

    def test_round_trip(self):
        rule = FaultRule(site="transfer.h2d", indices=(0, 3), max_faults=2,
                         match="input")
        assert FaultRule.from_dict(rule.as_dict()) == rule


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="launch", indices=(2,)),
            FaultRule(site="launch.lowered", probability=0.25, match="k"),
        ))
        assert FaultPlan.loads(plan.dumps()) == plan

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 3, "rules": [{"site": "launch"}]}')
        plan = FaultPlan.load(str(path))
        assert plan.seed == 3
        assert plan.rules[0].site == "launch"

    def test_invalid_json_and_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan.loads("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.load(str(tmp_path / "absent.json"))

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"seed": 1, "faults": []})

    def test_example_plan_parses(self):
        import os

        here = os.path.dirname(__file__)
        path = os.path.join(here, "..", "..", "examples", "fault_plan.json")
        plan = FaultPlan.load(path)
        assert plan.rules
        assert all(r.site in FAULT_SITES for r in plan.rules)


class TestSchedule:
    def test_indices_fire_at_exact_occurrences(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="launch", indices=(1, 3)),)))
        hits = [inj.decide("launch") is not None for _ in range(5)]
        assert hits == [False, True, False, True, False]

    def test_probability_schedule_is_deterministic(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(site="launch", probability=0.5),))
        first = [FaultInjector(plan).decide("launch") is not None
                 for _ in range(1)]
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.decide("launch") is not None for _ in range(64)]
        seq_b = [b.decide("launch") is not None for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        assert first[0] == seq_a[0]

    def test_different_seeds_differ(self):
        def schedule(seed):
            inj = FaultInjector(FaultPlan(seed=seed, rules=(
                FaultRule(site="launch", probability=0.5),)))
            return [inj.decide("launch") is not None for _ in range(64)]

        assert schedule(1) != schedule(2)

    def test_max_faults_caps_firing(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="launch", probability=1.0, max_faults=2),)))
        hits = [inj.decide("launch") is not None for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_match_restricts_to_labels(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="transfer.h2d", probability=1.0, match="grid"),)))
        assert inj.decide("transfer.h2d", "other") is None
        assert inj.decide("transfer.h2d", "grid_in") is not None

    def test_occurrences_counted_even_without_rules(self):
        inj = FaultInjector(FaultPlan())
        inj.decide("launch")
        inj.decide("launch")
        assert inj.stats()["occurrences"] == {"launch": 2}
        assert inj.stats()["total_fired"] == 0

    def test_events_record_what_fired(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="launch", indices=(0,)),)))
        inj.decide("launch", "stencil_kernel")
        [event] = inj.events
        assert event.site == "launch" and event.index == 0
        assert event.key == "stencil_kernel"
        assert inj.stats()["fired"] == {"launch": 1}


class TestHooks:
    def test_fail_transfer_raises_marked_device_error(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),)))
        with pytest.raises(DeviceError) as err:
            inj.fail_transfer("h2d", "grid_in")
        assert "[fault-injection]" in str(err.value)
        assert err.value.injected is True

    def test_fail_launch_raises_marked_launch_error(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="launch", indices=(0,)),)))
        with pytest.raises(LaunchError) as err:
            inj.fail_launch("launch", "stencil_kernel")
        assert "[fault-injection]" in str(err.value)
        assert err.value.injected is True

    def test_corrupt_read_reports_miss(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="diskstore.read", indices=(0,)),)))
        assert inj.corrupt_read("/store/a.json") is True
        assert inj.corrupt_read("/store/a.json") is False


class TestCorruptArray:
    def test_floats_blow_any_tolerance(self):
        data = np.linspace(0.0, 1.0, 50)
        corrupt_array(data)
        assert np.max(np.abs(data)) == pytest.approx(1e30)
        # interior elements are hit, not just a boundary corner
        assert np.count_nonzero(data == 1e30) >= 7

    def test_ints_and_bools_bit_flip(self):
        ints = np.arange(20, dtype=np.int64)
        corrupt_array(ints)
        assert np.any(ints < 0)
        bools = np.zeros(20, dtype=bool)
        corrupt_array(bools)
        assert np.any(bools)

    def test_deterministic(self):
        a = np.linspace(0.0, 1.0, 64)
        b = a.copy()
        corrupt_array(a)
        corrupt_array(b)
        np.testing.assert_array_equal(a, b)


class TestInstallation:
    def test_scoped_install_and_reset(self):
        plan = FaultPlan()
        assert active_injector() is None
        with install_fault_plan(plan) as injector:
            assert active_injector() is injector
        assert active_injector() is None

    def test_nesting_rejected(self):
        with install_fault_plan(FaultPlan()):
            with pytest.raises(ConfigurationError):
                with install_fault_plan(FaultPlan()):
                    pass
        assert active_injector() is None

    def test_reset_on_error(self):
        with pytest.raises(RuntimeError):
            with install_fault_plan(FaultPlan()):
                raise RuntimeError("boom")
        assert active_injector() is None


class TestZeroOverheadDisabledPath:
    def test_hot_paths_never_consult_the_injector_when_off(self, stencil,
                                                           monkeypatch):
        """With no plan installed the hooks must not even reach decide()."""

        def trap(self, *args, **kwargs):
            raise AssertionError("fault injector consulted while disabled")

        monkeypatch.setattr(FaultInjector, "decide", trap)
        result = stencil.run(stencil_request(stencil, L=18))
        assert result.verification.passed

    def test_injected_faults_surface_through_workload_run(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="transfer.h2d", indices=(0,)),))
        with install_fault_plan(plan):
            with pytest.raises(DeviceError) as err:
                stencil.run(stencil_request(stencil, L=18))
        assert "[fault-injection]" in str(err.value)

    def test_corruption_fails_verification_not_the_run(self, stencil):
        plan = FaultPlan(rules=(
            FaultRule(site="corrupt.d2h", probability=1.0),))
        with install_fault_plan(plan) as injector:
            result = stencil.run(stencil_request(stencil, L=18))
        assert injector.stats()["total_fired"] >= 1
        assert result.verification.ran
        assert not result.verification.passed

    def test_module_flag_is_the_single_switch(self):
        assert faults_mod._ACTIVE is None
        with install_fault_plan(FaultPlan()) as injector:
            assert faults_mod._ACTIVE is injector


class TestLoweredSites:
    def test_replay_thunk_fires_the_lowered_site(self, stencil):
        # The default (auto) probe lowers the stencil at instantiation, so
        # replays never reach run_vectorized: launch.lowered must cover them.
        graph = stencil.tuning_probe(stencil_request(stencil, L=16))
        clean = graph.replay()["f"].copy()
        plan = FaultPlan(rules=(
            FaultRule(site="launch.lowered", indices=(0,)),))
        with install_fault_plan(plan) as injector:
            with pytest.raises(LaunchError) as err:
                graph.replay()
            again = graph.replay()["f"]
        occurrences = injector.stats()["occurrences"]
        assert err.value.injected is True
        assert occurrences["launch.lowered"] == 2
        assert "launch.vectorized" not in occurrences
        np.testing.assert_array_equal(again, clean)
