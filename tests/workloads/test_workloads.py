"""Tests for the unified request/result schema and the four adapters."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.device import DeviceContext
from repro.core.errors import ConfigurationError, VerificationError
from repro.harness.runner import MeasurementProtocol
from repro.harness.sweep import sweep
from repro.kernels.stencil import verify_stencil_kernel
from repro.workloads import (
    RunRequest,
    Verification,
    Workload,
    WorkloadResult,
    get_workload,
    list_workloads,
    run_workload,
)

FAST_PROTOCOL = MeasurementProtocol(warmup=1, repeats=3)

#: reduced problem sizes per workload, for fast tests
QUICK = {
    "stencil": {"L": 64},
    "babelstream": {"n": 2 ** 18},
    "minibude": {"ppwi": 2, "wgsize": 8, "nposes": 1024},
    "hartreefock": {"natoms": 16},
}


def quick_result(name, **kwargs):
    workload = get_workload(name)
    request = workload.make_request(params=QUICK[name],
                                    protocol=FAST_PROTOCOL, **kwargs)
    return workload.run(request)


class TestRunRequest:
    def test_frozen(self):
        request = RunRequest(workload="stencil")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.gpu = "mi300a"

    def test_params_mapping_immutable(self):
        request = RunRequest(workload="stencil", params={"L": 64})
        with pytest.raises(TypeError):
            request.params["L"] = 128

    def test_replace_and_with_params(self):
        request = RunRequest(workload="stencil", params={"L": 64})
        other = request.replace(backend="cuda")
        assert other.backend == "cuda" and other.params["L"] == 64
        merged = request.with_params(seed=7)
        assert dict(merged.params) == {"L": 64, "seed": 7}
        assert request.params == {"L": 64}  # original untouched

    def test_hashable_for_caching(self):
        a = get_workload("stencil").make_request(params={"L": 64})
        b = get_workload("stencil").make_request(params={"L": 64})
        c = get_workload("stencil").make_request(params={"L": 128})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_zero_block_shape_rejected_at_validation(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            get_workload("stencil").make_request(
                params={"block_shape": "0,0,0"})

    @pytest.mark.parametrize("value", ["8,4", "", "8,4,4,2"])
    def test_wrong_arity_block_shape_rejected(self, value):
        with pytest.raises(ConfigurationError, match="comma-separated"):
            get_workload("stencil").make_request(
                params={"block_shape": value})

    def test_as_dict_round_trips_through_json(self):
        request = RunRequest(workload="stencil", params={"L": 64},
                             protocol=MeasurementProtocol(2, 9))
        payload = json.loads(json.dumps(request.as_dict()))
        assert payload["workload"] == "stencil"
        assert payload["protocol"] == {"warmup": 2, "repeats": 9}

    def test_invalid_protocol(self):
        with pytest.raises(ConfigurationError):
            MeasurementProtocol(warmup=-1)
        with pytest.raises(ConfigurationError):
            MeasurementProtocol(repeats=0)


class TestAdapters:
    @pytest.mark.parametrize("name", ["stencil", "babelstream", "minibude",
                                      "hartreefock"])
    def test_runs_without_verification(self, name):
        result = quick_result(name, verify=False)
        assert result.workload == name
        assert math.isfinite(result.primary_value)
        assert result.primary_value > 0
        assert not result.verification.ran
        assert "kernel_time_ms" in result.metrics

    @pytest.mark.parametrize("name", ["stencil", "babelstream", "minibude",
                                      "hartreefock"])
    def test_json_schema_identical_across_workloads(self, name):
        result = quick_result(name, verify=False)
        payload = json.loads(json.dumps(result.as_dict(), default=str))
        assert sorted(payload) == ["metrics", "primary_metric", "provenance",
                                   "request", "samples", "schema", "timing",
                                   "verification", "workload"]
        assert payload["schema"] == "repro.workload-result/v1"
        assert sorted(payload["verification"]) == ["detail", "max_rel_error",
                                                   "passed", "ran"]
        assert payload["provenance"]["substrate"] == "simulated"
        for breakdown in payload["timing"].values():
            assert "kernel_time_ms" in breakdown

    def test_verification_runs_and_passes(self):
        result = quick_result("hartreefock")
        assert result.verification.ran and result.verification.passed
        assert result.verification.max_rel_error < 1e-9

    def test_to_row_matches_declared_columns(self):
        result = quick_result("stencil", verify=False)
        row = result.to_row()
        assert tuple(row) == WorkloadResult.ROW_COLUMNS
        assert row["max_rel_error"] is None  # NaN folded to None

    def test_run_workload_dispatches_by_request_name(self):
        request = get_workload("stencil").make_request(
            params=QUICK["stencil"], protocol=FAST_PROTOCOL, verify=False)
        result = run_workload(request)
        assert result.workload == "stencil"

    def test_mismatched_dispatch_rejected(self):
        request = RunRequest(workload="stencil")
        with pytest.raises(ConfigurationError, match="dispatched"):
            get_workload("minibude").run(request)

    def test_reference_and_verify_protocol_methods(self):
        stencil = get_workload("stencil")
        ref = stencil.reference(L=12)
        assert ref.shape == (12, 12, 12)
        assert verify_stencil_kernel(DeviceContext("h100"), L=12) < 1e-9
        hf = get_workload("hartreefock")
        fock = hf.reference(natoms=2)
        assert fock.shape == (2, 2) and np.all(np.isfinite(fock))

    def test_verification_error_folded_with_full_metrics(self):
        class Failing(Workload):
            name = "failing"
            primary_metric = "x"

            def _run(self, request):
                if request.verify:
                    raise VerificationError("kaboom", max_rel_error=0.25)
                return WorkloadResult(
                    request=request, metrics={"x": 1.0, "y": 2.0},
                    primary_metric="x",
                    verification=Verification(ran=False, passed=False),
                )

        result = Failing().run(RunRequest(workload="failing"))
        assert result.verification.ran and not result.verification.passed
        assert "kaboom" in result.verification.detail
        # the checker's measured error survives the fold as structured data
        assert result.verification.max_rel_error == 0.25
        # the bench re-ran without verification: full metrics survive, and
        # the stored request still records that verification was asked for
        assert result.metrics == {"x": 1.0, "y": 2.0}
        assert result.request.verify

    def test_nonfinite_metrics_export_as_strict_json(self):
        result = WorkloadResult(
            request=RunRequest(workload="stencil"),
            metrics={"x": float("nan"), "y": 3.0},
            primary_metric="x",
            verification=Verification(ran=False, passed=False),
            samples={"x": [1.0, float("inf")]},
        )
        text = json.dumps(result.as_dict(), default=str)
        payload = json.loads(text, parse_constant=lambda c: pytest.fail(
            f"non-strict JSON constant {c!r} in export"))
        assert payload["metrics"] == {"x": None, "y": 3.0}
        assert payload["samples"]["x"] == [1.0, None]

    def test_fast_math_flag_reaches_the_backend_model(self):
        # mojo models the paper's lack of fast-math, so use CUDA
        workload = get_workload("minibude")
        base = workload.make_request(params=QUICK["minibude"],
                                     backend="cuda", verify=False)
        plain = workload.run(base)
        fast = workload.run(base.replace(fast_math=True))
        assert fast.metrics["gflops"] > plain.metrics["gflops"]
        assert "fast-math" in " ".join(fast.timing["kernel"].notes)
        assert "fast-math" not in " ".join(plain.timing["kernel"].notes)

    def test_fast_math_flag_honoured_by_every_adapter(self):
        # compiled-in fast-math must reach the timing model for all four
        # workloads (it previously only did for minibude)
        for name in list_workloads():
            workload = get_workload(name)
            request = workload.make_request(params=QUICK[name],
                                            backend="cuda", verify=False,
                                            protocol=FAST_PROTOCOL,
                                            fast_math=True)
            result = workload.run(request)
            for breakdown in result.timing.values():
                assert "fast-math" in " ".join(breakdown.notes)

    def test_babelstream_honours_warmup_and_repeats(self):
        workload = get_workload("babelstream")
        for warmup in (0, 1, 3):
            request = workload.make_request(
                params=QUICK["babelstream"], verify=False,
                protocol=MeasurementProtocol(warmup=warmup, repeats=4))
            result = workload.run(request)
            assert all(len(s) == 4 for s in result.samples.values())

    def test_sampling_provenance_is_honest(self):
        sampled = quick_result("stencil", verify=False)
        single = quick_result("hartreefock", verify=False)
        assert sampled.provenance["sampling"] == "synthetic-jitter"
        assert len(sampled.samples["bandwidth_gbs"]) == FAST_PROTOCOL.repeats
        assert single.provenance["sampling"] == "single-evaluation"
        assert single.samples == {}


class TestSweepIntegration:
    def test_requests_lift_fields_and_params(self):
        s = sweep(backend=["mojo", "cuda"], L=[32, 64])
        requests = list(s.requests("stencil", gpu="a100", verify=False))
        assert len(requests) == 4
        assert {r.backend for r in requests} == {"mojo", "cuda"}
        assert all(r.gpu == "a100" and not r.verify for r in requests)
        assert sorted({r.params["L"] for r in requests}) == [32, 64]
        # schema defaults are filled in for params not swept over
        assert all(r.params["block_shape"] == (512, 1, 1) for r in requests)

    def test_requests_validate_against_schema(self):
        s = sweep(bogus=[1])
        with pytest.raises(ConfigurationError, match="no parameter"):
            list(s.requests("stencil"))

    def test_run_workload_preserves_order_with_workers(self):
        s = sweep(L=[32, 48, 64])
        sequential = s.run_workload("stencil", verify=False,
                                    protocol=FAST_PROTOCOL)
        threaded = s.run_workload("stencil", verify=False,
                                  protocol=FAST_PROTOCOL, workers=3)
        assert [r.request.params["L"] for r in sequential] == [32, 48, 64]
        assert [r.primary_value for r in threaded] == \
               [r.primary_value for r in sequential]


class TestVerificationDataclass:
    def test_nan_error_serialises_to_none(self):
        v = Verification(ran=True, passed=True, max_rel_error=float("nan"))
        assert v.as_dict()["max_rel_error"] is None

    def test_finite_error_preserved(self):
        v = Verification(ran=True, passed=True, max_rel_error=1.5e-11)
        assert v.as_dict()["max_rel_error"] == 1.5e-11
