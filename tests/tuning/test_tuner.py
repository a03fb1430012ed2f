"""Tests for the tuner: search strategies, guards, and request integration.

Holds the ISSUE-5 acceptance guards: the tuned stencil configuration beats
the untuned default launch by at least 1.2x in the guard scenario, pruning
skips at least 25% of the candidate space without changing the winner's
score, and a second tuning invocation is a database hit that runs no search.
"""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.harness.sweep import Sweep, sweep
from repro.tuning import Tuner, TuningDB, resolve_tuning
from repro.workloads import get_workload

#: the guarded scenario: a mid-size grid where the hardcoded (512, 1, 1)
#: launch oversubscribes the domain and wastes most of its threads
GUARD_PARAMS = {"L": 64}


def _request(**overrides):
    wl = get_workload("stencil")
    base = dict(gpu="h100", backend="mojo", params=GUARD_PARAMS, verify=False)
    base.update(overrides)
    return wl, wl.make_request(**base)


def _search(budget=16, **kwargs):
    wl, request = _request()
    kwargs.setdefault("db", TuningDB(disk_dir=None))
    return Tuner(wl, request, budget=budget, **kwargs).search()


class TestSearch:
    def test_guard_tuned_beats_untuned_default_by_1_2x(self):
        """ISSUE-5 acceptance: >= 1.2x over the untuned default launch."""
        outcome = _search()
        assert outcome.best is not None
        assert outcome.speedup >= 1.2
        assert outcome.baseline.measured_ms >= 1.2 * outcome.best.measured_ms

    def test_guard_pruning_skips_quarter_without_changing_winner(self):
        """ISSUE-5 acceptance: the model-guided pruner skips >= 25% of the
        space and the exhaustive winner's score is unchanged by it."""
        pruned = _search(budget=64, strategy="exhaustive")
        full = _search(budget=64, strategy="exhaustive", prune=False)
        assert pruned.prune.pruned_fraction >= 0.25
        assert pruned.best.measured_ms == pytest.approx(
            full.best.measured_ms, rel=1e-12)

    def test_budget_bounds_measurements(self):
        outcome = _search(budget=5)
        assert len(outcome.evaluations) <= 5

    def test_baseline_always_measured_first(self):
        outcome = _search(budget=4)
        assert outcome.evaluations[0].source == "baseline"
        assert outcome.baseline is outcome.evaluations[0]

    def test_winner_never_worse_than_baseline(self):
        outcome = _search(budget=4)
        assert outcome.best.measured_ms <= outcome.baseline.measured_ms

    def test_random_strategy_is_deterministic(self):
        a = _search(strategy="random", seed=7)
        b = _search(strategy="random", seed=7)
        assert [e.config for e in a.evaluations] == \
            [e.config for e in b.evaluations]
        assert a.best.config == b.best.config

    def test_auto_picks_exhaustive_for_small_spaces(self):
        outcome = _search(budget=64)
        assert outcome.strategy == "exhaustive"

    def test_auto_picks_random_for_large_spaces(self):
        outcome = _search(budget=8)
        assert outcome.strategy == "random"

    def test_modelled_and_measured_rankings_agree_on_direction(self):
        # The pruner's estimate is not the timing model, but on the guard
        # scenario both must agree that the default slab launch is the
        # wrong choice.
        outcome = _search(budget=64, strategy="exhaustive")
        baseline = outcome.baseline
        best = outcome.best
        assert best.modelled_ms < baseline.modelled_ms
        assert best.measured_ms < baseline.measured_ms

    def test_probe_runs_capture_replay_per_candidate(self):
        outcome = _search(budget=4)
        probed = [e for e in outcome.evaluations if e.probe is not None]
        assert probed, "stencil declares a probe; candidates must be probed"
        for e in probed:
            assert e.probe.ok
            assert e.probe.replays == 2  # capture once, replay per repeat
            assert e.probe.kernels == 1

    def test_record_persisted_and_hit_on_second_search(self):
        wl, request = _request()
        db = TuningDB(disk_dir=None)
        outcome = Tuner(wl, request, db=db, budget=8).search()
        assert outcome.record is not None
        before = db.memo.cache_info().hits
        assert db.get(request, wl.tuning_space(request)) is not None
        assert db.memo.cache_info().hits == before + 1

    def test_invalid_strategy_and_budget_rejected(self):
        wl, request = _request()
        with pytest.raises(ConfigurationError):
            Tuner(wl, request, strategy="annealing")
        with pytest.raises(ConfigurationError):
            Tuner(wl, request, budget=1)


class TestResolveTuning:
    def test_cached_mode_miss_runs_untuned(self):
        wl, request = _request(tune="cached")
        db = TuningDB(disk_dir=None)
        resolved, info = resolve_tuning(wl, request, db=db)
        assert info["applied"] is False and info["reason"] == "db-miss"
        assert resolved.params["block_shape"] == (512, 1, 1)

    def test_search_mode_searches_once_then_hits(self):
        wl, request = _request(tune="search")
        db = TuningDB(disk_dir=None)
        resolved, info = resolve_tuning(wl, request, db=db)
        assert info["applied"] is True and info.get("searched")
        assert resolved.params["block_shape"] != (512, 1, 1)
        # second resolution: DB hit, no search
        resolved2, info2 = resolve_tuning(wl, request, db=db)
        assert info2["applied"] is True and "searched" not in info2
        assert resolved2.params["block_shape"] == \
            resolved.params["block_shape"]

    def test_workload_without_space_opts_out(self):
        from repro.workloads.base import Workload

        class Bare(Workload):
            name = "bare"

        wl, request = _request(tune="cached")
        bare_request = request.replace(workload="bare")
        resolved, info = resolve_tuning(Bare(), bare_request)
        assert resolved is bare_request
        assert info["reason"] == "no-tuning-space"


class TestRunIntegration:
    def test_run_with_tune_search_applies_winner_and_stamps_provenance(self):
        from repro.tuning import configure_tuning_db

        configure_tuning_db(disk=False)
        try:
            wl, request = _request(tune="search")
            result = wl.run(request)
            tuning = result.provenance["tuning"]
            assert tuning["applied"] is True
            assert result.request.params["block_shape"] != (512, 1, 1)
            untuned = wl.run(request.replace(tune="off"))
            assert result.metrics["kernel_time_ms"] <= \
                untuned.metrics["kernel_time_ms"] / 1.2
        finally:
            configure_tuning_db(disk=False)  # drop records for other tests

    def test_sweep_can_sweep_tune_modes(self):
        from repro.tuning import configure_tuning_db

        configure_tuning_db(disk=False)
        try:
            s = sweep(tune=["off", "search"], L=[64])
            assert "tune" in Sweep.REQUEST_FIELDS
            results = s.run_workload("stencil", cache=False, verify=False)
            assert [r.request.tune for r in results] == ["off", "search"]
            off, tuned = results
            assert tuned.metrics["kernel_time_ms"] < \
                off.metrics["kernel_time_ms"]
            assert "tuning" in tuned.provenance
            assert "tuning" not in off.provenance
        finally:
            configure_tuning_db(disk=False)

    def test_tuned_requests_bypass_result_cache(self):
        from repro.tuning import configure_tuning_db
        from repro.workloads.cache import ResultCache, run_cached

        configure_tuning_db(disk=False)
        try:
            wl, request = _request(tune="search")
            cache = ResultCache()
            run_cached(request, cache=cache)
            run_cached(request, cache=cache)
            info = cache.memo.cache_info()
            assert info.hits == 0 and info.misses == 0
            assert info.entries == 0
        finally:
            configure_tuning_db(disk=False)
