"""Tests for the tuning database: keys, persistence, versioning, budgets."""

import json
import os

import pytest

import repro
from repro.core import memo as memo_module
from repro.harness.runner import MeasurementProtocol
from repro.tuning import db as db_module
from repro.tuning.db import (
    TuningDB,
    TuningRecord,
    configure_tuning_db,
    default_tuning_db,
    tuning_key,
)
from repro.tuning.space import TuningConfig
from repro.workloads import get_workload


def _request(**overrides):
    wl = get_workload("stencil")
    base = dict(gpu="h100", backend="mojo", params={"L": 64}, verify=False)
    base.update(overrides)
    return wl.make_request(**base)


def _record(**overrides):
    base = dict(
        workload="stencil", gpu="h100", backend="mojo", precision="float64",
        key_params={"L": 64},
        config=TuningConfig.make({"block_shape": (4, 4, 4)},
                                 {"fast_math": True}),
        score_ms=0.007, baseline_ms=0.020, modelled_ms=0.011,
        strategy="exhaustive", budget=16, space_size=36, pruned=12,
        measured=10,
    )
    base.update(overrides)
    return TuningRecord(**base)


class TestKey:
    def test_key_ignores_tuned_and_protocol_fields(self):
        wl = get_workload("stencil")
        space = wl.tuning_space(_request())
        base = TuningDB.key_for(_request(), space)
        # tuned knobs, protocol, verification, streams and the tune mode
        # itself do not change the problem identity
        assert TuningDB.key_for(
            _request(params={"L": 64, "block_shape": (4, 4, 4)}),
            space) == base
        assert TuningDB.key_for(_request(fast_math=True), space) == base
        assert TuningDB.key_for(
            _request(protocol=MeasurementProtocol(warmup=0, repeats=2)),
            space) == base
        assert TuningDB.key_for(_request(verify=True), space) == base
        assert TuningDB.key_for(_request(streams=4), space) == base
        assert TuningDB.key_for(_request(tune="cached"), space) == base

    def test_key_tracks_problem_fields(self):
        wl = get_workload("stencil")
        space = wl.tuning_space(_request())
        base = TuningDB.key_for(_request(), space)
        assert TuningDB.key_for(_request(gpu="mi300a", backend="hip"),
                                space) != base
        assert TuningDB.key_for(_request(backend="cuda"), space) != base
        assert TuningDB.key_for(_request(precision="float32"),
                                space) != base
        assert TuningDB.key_for(_request(params={"L": 128}), space) != base

    def test_key_folds_package_version(self, monkeypatch):
        key = tuning_key(_request())
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert tuning_key(_request()) != key

    def test_untuned_cost_fields_participate_in_key(self):
        # A space that does NOT tune fast_math measures its winner under
        # the request's fast-math lowering, so requests differing in it
        # must not share a record.  (Spaces that do tune it exclude it —
        # there the stored config overrides the field anyway.)
        assert tuning_key(_request(), tuned_fields=()) != \
            tuning_key(_request(fast_math=True), tuned_fields=())
        assert tuning_key(_request(), tuned_fields=("fast_math",)) == \
            tuning_key(_request(fast_math=True), tuned_fields=("fast_math",))


class TestRoundtrip:
    def test_memory_get_put(self):
        db = TuningDB(disk_dir=None)
        request = _request()
        assert db.get(request) is None
        db.put(request, _record())
        got = db.get(request)
        assert got is not None
        assert got.config.params["block_shape"] == (4, 4, 4)
        assert got.speedup == pytest.approx(0.020 / 0.007)
        info = db.memo.cache_info()
        assert info.hits == 1 and info.misses == 1
        assert db.memo.disk is None

    def test_disk_survives_new_instance(self, tmp_path):
        db = TuningDB(disk_dir=str(tmp_path))
        request = _request()
        db.put(request, _record())
        fresh = TuningDB(disk_dir=str(tmp_path))
        got = fresh.get(request)
        assert got is not None and got.score_ms == pytest.approx(0.007)
        assert fresh.memo.cache_info().disk_hits == 1

    def test_schema_mismatch_invalidates_disk_record(self, tmp_path):
        db = TuningDB(disk_dir=str(tmp_path))
        request = _request()
        db.put(request, _record())
        records = os.path.join(str(tmp_path), "records")
        [name] = os.listdir(records)
        path = os.path.join(records, name)
        from repro.core.diskstore import read_json_entry, write_json_entry

        payload = read_json_entry(path)
        payload["schema"] = "repro.tuning-record/v0"
        # rewrite through the store so the checksum matches: the *schema*
        # check must reject the record, not the corruption guard
        write_json_entry(path, payload, max_bytes=0)
        fresh = TuningDB(disk_dir=str(tmp_path))
        assert fresh.get(request) is None
        assert os.path.exists(path)  # foreign schema is not quarantined

    def test_record_roundtrips_through_dict(self):
        record = _record()
        again = TuningRecord.from_dict(record.as_dict())
        assert again.config == record.config
        assert again.key_params == record.key_params
        assert again.score_ms == record.score_ms

    def test_lru_eviction_in_memory(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MAX_ENTRIES", 2)
        db = TuningDB(disk_dir=None)
        for L in (32, 48, 64):
            db.put(_request(params={"L": L}), _record(key_params={"L": L}))
        assert db.memo.cache_info().entries == 2
        assert db.get(_request(params={"L": 32})) is None


class TestDiskBudget:
    def test_store_stays_within_byte_budget(self, tmp_path, monkeypatch):
        # Learn one record's size, then give the store room for ~2.5 of
        # them: after five writes at most three files may remain (the
        # just-written entry is always exempt from eviction, so the store
        # can exceed the budget by at most one record).
        probe = TuningDB(disk_dir=str(tmp_path))
        probe.put(_request(params={"L": 8}), _record(key_params={"L": 8}))
        records = os.path.join(str(tmp_path), "records")
        [name] = os.listdir(records)
        size = os.path.getsize(os.path.join(records, name))

        monkeypatch.setattr(db_module, "TUNE_DISK_BUDGET", int(size * 2.5))
        db = TuningDB(disk_dir=str(tmp_path))
        for L in (16, 24, 32, 40, 48):
            db.put(_request(params={"L": L}), _record(key_params={"L": L}))
        assert len(os.listdir(records)) <= 3

    def test_zero_budget_disables_pruning(self, tmp_path, monkeypatch):
        monkeypatch.setattr(db_module, "TUNE_DISK_BUDGET", 0)
        db = TuningDB(disk_dir=str(tmp_path))
        for L in (16, 24, 32):
            db.put(_request(params={"L": L}), _record(key_params={"L": L}))
        assert len(os.listdir(os.path.join(str(tmp_path), "records"))) == 3


class TestDefaultDB:
    def test_configure_replaces_default(self, tmp_path):
        original = default_tuning_db()
        try:
            db = configure_tuning_db(disk_dir=str(tmp_path))
            assert default_tuning_db() is db
            assert db.disk_dir == str(tmp_path)
            memory_only = configure_tuning_db(disk=False)
            assert memory_only.disk_dir is None
        finally:
            configure_tuning_db(disk=original.disk_dir is not None,
                                disk_dir=original.disk_dir)
