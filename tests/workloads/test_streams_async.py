"""Tests for the stream-aware request surface and result-cache parity."""

import pytest

from repro.core.errors import ConfigurationError
from repro.harness.sweep import Sweep, sweep
from repro.workloads import MAX_STREAMS, RunRequest, get_workload

QUICK = {
    "stencil": {"L": 32},
    "babelstream": {"n": 4096},
    "minibude": {"nposes": 256, "verify_poses": 64},
    "hartreefock": {"natoms": 16, "verify_natoms": 4},
}


class TestStreamsRequestField:
    def test_default_and_export(self):
        request = RunRequest(workload="stencil")
        assert request.streams == 1
        assert request.as_dict()["streams"] == 1

    def test_string_value_coerced(self):
        assert RunRequest(workload="stencil", streams="4").streams == 4

    @pytest.mark.parametrize("bad", [0, -1, "many", 2.5, MAX_STREAMS + 1])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            RunRequest(workload="stencil", streams=bad)

    def test_streams_participates_in_hash_and_eq(self):
        one = RunRequest(workload="stencil", streams=1)
        two = RunRequest(workload="stencil", streams=2)
        assert one != two
        assert hash(one) != hash(two)
        assert hash(two) == hash(RunRequest(workload="stencil", streams=2))

    def test_swept_as_request_field(self):
        assert "streams" in Sweep.REQUEST_FIELDS
        requests = list(sweep(streams=[1, 2], L=[32]).requests(
            "stencil", verify=False))
        assert [r.streams for r in requests] == [1, 2]
        assert all(r.params["L"] == 32 for r in requests)


class TestStreamParity:
    """The stream count shapes the modelled pipeline, never the numerics."""

    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_metrics_identical_across_stream_counts(self, name):
        wl = get_workload(name)
        results = [
            wl.run(wl.make_request(executor="vectorized", streams=streams,
                                   params=QUICK[name]))
            for streams in (1, 3)
        ]
        assert results[0].metrics == results[1].metrics
        assert (results[0].verification.max_rel_error
                == results[1].verification.max_rel_error)
        assert all(r.verification.passed for r in results)

    @pytest.mark.parametrize("name", sorted(QUICK))
    def test_verify_pipeline_timing_reported(self, name):
        wl = get_workload(name)
        result = wl.run(wl.make_request(streams=2, params=QUICK[name]))
        pipeline = result.timing["verify_pipeline"]
        payload = pipeline.as_dict()
        assert payload["elapsed_ms"] > 0.0
        assert payload["elapsed_ms"] <= payload["serial_ms"]
        assert len(payload["lanes"]) >= 2     # h2d lane(s) + compute
        # the uniform JSON export carries the pipeline too
        exported = result.as_dict()["timing"]["verify_pipeline"]
        assert exported["serial_ms"] == payload["serial_ms"]

    def test_multi_stream_minibude_overlaps_uploads(self):
        wl = get_workload("minibude")
        result = wl.run(wl.make_request(streams=3,
                                        params=QUICK["minibude"]))
        pipeline = result.timing["verify_pipeline"]
        assert pipeline.overlap_saved_ms > 0.0
        assert pipeline.elapsed_ms < pipeline.serial_ms

    def test_no_pipeline_entry_without_verification(self):
        wl = get_workload("stencil")
        result = wl.run(wl.make_request(verify=False, streams=2,
                                        params=QUICK["stencil"]))
        assert "verify_pipeline" not in result.timing


class TestAsyncCacheParity:
    """Duplicate sweep points cost one workload run however they are driven.

    The historical divergence was duplicate sweep points: run sequentially
    they cost one workload run (miss) plus hits, but run concurrently on a
    thread pool every duplicate missed *before* any of them stored, so the
    workload ran redundantly and the counters disagreed with the
    sequential path.  ``run_cached`` single-flights identical requests,
    making the accounting identical everywhere.
    """

    class _Counting:
        """Wraps the stencil workload, counting real _run invocations."""

        def __init__(self):
            import threading

            from repro.workloads import get_workload

            self._inner = get_workload("stencil")
            self.runs = 0
            self._lock = threading.Lock()

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def run(self, request):
            with self._lock:
                self.runs += 1
            return self._inner.run(request)

    @staticmethod
    def _duplicate_sweep():
        # Sweep.add does not deduplicate values, so [20, 20, 20] yields
        # three identical configurations — i.e. three identical requests.
        return sweep(L=[20, 20, 20])

    def _drive(self, mode):
        from repro.workloads.cache import ResultCache, run_cached

        cache = ResultCache()
        workload = self._Counting()
        runner = lambda r: run_cached(r, cache=cache, workload=workload)
        s = self._duplicate_sweep()
        reqs = list(s.requests(workload._inner, verify=False))
        if mode == "sync":
            results = [runner(r) for r in reqs]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=3) as pool:
                results = [f.result()
                           for f in [pool.submit(runner, r) for r in reqs]]
        return workload.runs, cache.memo.cache_info(), results

    @pytest.mark.parametrize("mode", ["sync", "threads"])
    def test_duplicate_requests_run_once_in_every_mode(self, mode):
        runs, info, results = self._drive(mode)
        assert runs == 1, f"{mode}: duplicates must coalesce into one run"
        assert info.misses == 1
        assert info.hits == 2
        assert len({id(r) for r in results}) == 3  # every caller owns a clone

    def test_threaded_sweep_coalesces_duplicates(self):
        from repro.workloads.cache import default_result_cache

        memo = default_result_cache().memo
        memo.clear()
        s = self._duplicate_sweep()
        results = s.run_workload("stencil", workers=3, verify=False)
        info = memo.cache_info()
        assert info.misses == 1 and info.hits == 2
        assert len(results) == 3
        assert results[0].metrics == results[1].metrics == results[2].metrics
        memo.clear()
