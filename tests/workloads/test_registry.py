"""Tests for the unified workload registry."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads import (
    ParamSpec,
    Workload,
    get_workload,
    list_workloads,
    register_workload,
    unregister_workload,
)


class DummyWorkload(Workload):
    name = "dummy"
    description = "a test workload"
    primary_metric = "widgets_per_s"
    params = (
        ParamSpec("size", int, 8, "problem size", minimum=1),
        ParamSpec("mode", str, "fast", "execution mode",
                  choices=("fast", "slow")),
        ParamSpec("scale", float, 1.0, "scale factor"),
        ParamSpec("flag", bool, False, "a switch"),
    )


@pytest.fixture
def dummy():
    workload = register_workload(DummyWorkload(), "dmy")
    yield workload
    # Individual tests replace/unregister entries; sweep out every dummy
    # registration so no alias leaks into the next test.
    from repro.workloads import registry
    for key in [k for k, v in registry._REGISTRY.items()
                if isinstance(v, DummyWorkload)]:
        del registry._REGISTRY[key]


class TestRegistry:
    def test_all_four_paper_workloads_registered(self):
        assert list_workloads() == ("babelstream", "hartreefock",
                                    "minibude", "stencil")

    def test_lookup_by_name_and_alias(self):
        assert get_workload("stencil").name == "stencil"
        assert get_workload("STENCIL") is get_workload("stencil")
        assert get_workload("hf") is get_workload("hartreefock")
        assert get_workload("laplacian") is get_workload("stencil")

    def test_concurrent_first_lookups_share_one_builtin(self, monkeypatch):
        from repro.workloads import registry

        pending = registry._Builtin("stencil", "repro.workloads.stencil",
                                    "StencilWorkload")
        for key in ("stencil", "laplacian"):
            monkeypatch.setitem(registry._REGISTRY, key, pending)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                found = list(pool.map(get_workload,
                                      ["stencil", "laplacian"] * 16,
                                      timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len({id(w) for w in found}) == 1
        assert get_workload("laplacian") is found[0]

    def test_instance_passthrough(self):
        wl = get_workload("minibude")
        assert get_workload(wl) is wl

    def test_unknown_lookup_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            get_workload("heat3d")

    def test_duplicate_registration_rejected(self, dummy):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_workload(DummyWorkload())

    def test_duplicate_alias_rejected(self, dummy):
        class Other(DummyWorkload):
            name = "other"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_workload(Other(), "dmy")

    def test_replace_allows_override(self, dummy):
        replacement = DummyWorkload()
        register_workload(replacement, replace=True)
        assert get_workload("dummy") is replacement

    def test_replace_evicts_stale_aliases(self, dummy):
        replacement = DummyWorkload()
        register_workload(replacement, replace=True)
        # the old instance's 'dmy' alias must not keep resolving to it
        with pytest.raises(ConfigurationError):
            get_workload("dmy")

    def test_replacing_only_an_alias_keeps_the_other_workload(self, dummy):
        class Variant(DummyWorkload):
            name = "variant"

        # take over the 'dmy' alias without displacing 'dummy' itself
        variant = register_workload(Variant(), "dmy", replace=True)
        assert get_workload("dmy") is variant
        assert get_workload("dummy") is dummy
        assert "dummy" in list_workloads()

    def test_reregistering_same_instance_is_idempotent(self, dummy):
        assert register_workload(dummy) is dummy

    def test_unnamed_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="no name"):
            register_workload(Workload())

    def test_unregister_removes_aliases(self, dummy):
        unregister_workload("dummy")
        with pytest.raises(ConfigurationError):
            get_workload("dmy")


class TestParamValidation:
    def test_defaults_applied(self, dummy):
        params = dummy.validate_params({})
        assert params == {"size": 8, "mode": "fast", "scale": 1.0,
                          "flag": False}

    def test_unknown_param_rejected(self, dummy):
        with pytest.raises(ConfigurationError, match="no parameter"):
            dummy.validate_params({"sizzle": 4})

    def test_type_coercion_from_strings(self, dummy):
        params = dummy.validate_params({"size": "16", "scale": "2.5",
                                        "flag": "true"})
        assert params["size"] == 16 and params["scale"] == 2.5
        assert params["flag"] is True

    def test_bad_type_rejected(self, dummy):
        with pytest.raises(ConfigurationError, match="expects int"):
            dummy.validate_params({"size": "many"})
        with pytest.raises(ConfigurationError, match="expects int"):
            dummy.validate_params({"size": 2.5})

    def test_minimum_enforced(self, dummy):
        with pytest.raises(ConfigurationError, match=">= 1"):
            dummy.validate_params({"size": 0})

    def test_choices_enforced(self, dummy):
        with pytest.raises(ConfigurationError, match="one of"):
            dummy.validate_params({"mode": "turbo"})

    def test_bool_string_rejected_when_ambiguous(self, dummy):
        with pytest.raises(ConfigurationError):
            dummy.validate_params({"flag": "maybe"})

    def test_tuple_param_parsing(self):
        spec = ParamSpec("block_shape", tuple, (512, 1, 1), "block")
        assert spec.coerce("256,2,1") == (256, 2, 1)
        assert spec.coerce("(128, 1, 1)") == (128, 1, 1)
        assert spec.coerce([64, 4, 1]) == (64, 4, 1)
        assert spec.coerce([64.0, 4, 1]) == (64, 4, 1)
        with pytest.raises(ConfigurationError):
            spec.coerce("axbxc")
        with pytest.raises(ConfigurationError, match="not an integer"):
            spec.coerce((8.5, 4, 4))

    def test_mismatched_workload_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="via 'stencil'"):
            get_workload("stencil").make_request(workload="minibude")
        # passing the matching name (e.g. from a request dict) is fine
        request = get_workload("stencil").make_request(workload="stencil")
        assert request.workload == "stencil"

    def test_precision_validated_per_workload(self):
        minibude = get_workload("minibude")
        with pytest.raises(ConfigurationError, match="precisions"):
            minibude.make_request(precision="float64")
        assert minibude.make_request().precision == "float32"
        assert get_workload("stencil").make_request().precision == "float64"

    def test_describe_schema(self, dummy):
        schema = dummy.describe()
        assert schema["name"] == "dummy"
        names = [p["name"] for p in schema["params"]]
        assert names == ["size", "mode", "scale", "flag"]
        mode = schema["params"][1]
        assert mode["choices"] == ["fast", "slow"]
