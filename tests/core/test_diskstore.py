"""Tests for the shared disk-store helpers (budget, checksum, quarantine)."""

import json
import os
import warnings

import pytest

from repro.core.diskstore import (
    QUARANTINE_DIR,
    CorruptEntryWarning,
    dir_size_bytes,
    prune_dir_to_budget,
    read_json_entry,
    write_json_entry,
)


def _write(path, name, nbytes, mtime):
    full = os.path.join(path, name)
    with open(full, "wb") as fh:
        fh.write(b"x" * nbytes)
    os.utime(full, (mtime, mtime))
    return full


class TestPrune:
    def test_evicts_oldest_first(self, tmp_path):
        path = str(tmp_path)
        _write(path, "old.json", 100, 1_000)
        _write(path, "mid.json", 100, 2_000)
        _write(path, "new.json", 100, 3_000)
        removed = prune_dir_to_budget(path, 250)
        assert removed == 1
        assert sorted(os.listdir(path)) == ["mid.json", "new.json"]

    def test_newest_entry_survives_even_over_budget(self, tmp_path):
        path = str(tmp_path)
        _write(path, "old.json", 100, 1_000)
        _write(path, "new.json", 500, 2_000)
        prune_dir_to_budget(path, 50)
        assert os.listdir(path) == ["new.json"]

    def test_under_budget_is_a_no_op(self, tmp_path):
        path = str(tmp_path)
        _write(path, "a.json", 100, 1_000)
        _write(path, "b.json", 100, 2_000)
        assert prune_dir_to_budget(path, 1_000) == 0
        assert len(os.listdir(path)) == 2

    def test_non_positive_budget_disables(self, tmp_path):
        path = str(tmp_path)
        _write(path, "a.json", 100, 1_000)
        _write(path, "b.json", 100, 2_000)
        assert prune_dir_to_budget(path, 0) == 0
        assert prune_dir_to_budget(path, -1) == 0
        assert len(os.listdir(path)) == 2

    def test_only_matching_suffix_touched(self, tmp_path):
        path = str(tmp_path)
        _write(path, "a.json", 100, 1_000)
        _write(path, "b.json", 100, 2_000)
        _write(path, "keep.txt", 10_000, 500)
        prune_dir_to_budget(path, 150)
        names = sorted(os.listdir(path))
        assert "keep.txt" in names and "b.json" in names
        assert "a.json" not in names

    def test_missing_directory_is_harmless(self, tmp_path):
        assert prune_dir_to_budget(str(tmp_path / "absent"), 100) == 0

    def test_dir_size_counts_suffix_files_only(self, tmp_path):
        path = str(tmp_path)
        _write(path, "a.json", 100, 1_000)
        _write(path, "b.txt", 50, 1_000)
        assert dir_size_bytes(path) == 100


class TestChecksumRoundTrip:
    def test_written_entries_read_back_clean(self, tmp_path):
        path = str(tmp_path / "store" / "entry.json")
        payload = {"schema": "x/v1", "result": {"value": 1.5,
                                                "items": [1, 2, 3]}}
        assert write_json_entry(path, payload, max_bytes=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_json_entry(path) == payload

    def test_checksum_is_embedded_on_disk(self, tmp_path):
        path = str(tmp_path / "entry.json")
        write_json_entry(path, {"a": 1}, max_bytes=0)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        assert "__checksum__" in raw
        assert "__checksum__" not in read_json_entry(path)

    def test_legacy_entry_without_checksum_still_reads(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"a": 1}, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_json_entry(path) == {"a": 1}

    def test_missing_file_is_a_silent_miss(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_json_entry(str(tmp_path / "absent.json")) is None


class TestQuarantine:
    def _quarantined(self, tmp_path, name="entry.json"):
        return tmp_path / QUARANTINE_DIR / name

    def test_truncated_json_is_quarantined(self, tmp_path):
        path = str(tmp_path / "entry.json")
        write_json_entry(path, {"a": 1}, max_bytes=0)
        with open(path, "r+", encoding="utf-8") as fh:
            body = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(body[: len(body) // 2])  # torn write
        with pytest.warns(CorruptEntryWarning, match="invalid JSON"):
            assert read_json_entry(path) is None
        assert not os.path.exists(path)
        assert self._quarantined(tmp_path).exists()

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        path = str(tmp_path / "entry.json")
        write_json_entry(path, {"a": 1}, max_bytes=0)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["a"] = 2  # bit-rot: valid JSON, wrong content
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        with pytest.warns(CorruptEntryWarning, match="checksum mismatch"):
            assert read_json_entry(path) is None
        assert self._quarantined(tmp_path).exists()

    def test_non_object_entry_is_quarantined(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2, 3]")
        with pytest.warns(CorruptEntryWarning, match="not a JSON object"):
            assert read_json_entry(path) is None
        assert self._quarantined(tmp_path).exists()

    def test_quarantine_preserves_the_damaged_bytes(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{damaged")
        with pytest.warns(CorruptEntryWarning):
            read_json_entry(path)
        assert self._quarantined(tmp_path).read_text() == "{damaged"

    def test_quarantine_dir_is_invisible_to_prune(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{damaged")
        with pytest.warns(CorruptEntryWarning):
            read_json_entry(path)
        _write(str(tmp_path), "good.json", 100, 1_000)
        assert dir_size_bytes(str(tmp_path)) == 100
        assert prune_dir_to_budget(str(tmp_path), 1_000) == 0
        assert self._quarantined(tmp_path).exists()


class TestStoreSelfHealing:
    """The stores detect corruption, quarantine it, warn and recompute."""

    def _corrupt_all(self, directory):
        count = 0
        for entry in directory.iterdir():
            if entry.suffix == ".json":
                entry.write_text("{torn-write")
                count += 1
        return count

    def test_result_cache_heals_a_corrupt_entry(self, tmp_path):
        from repro.harness.runner import MeasurementProtocol
        from repro.workloads import get_workload
        from repro.workloads.cache import ResultCache, run_cached

        wl = get_workload("stencil")
        request = wl.make_request(
            params={"L": 20}, verify=False,
            protocol=MeasurementProtocol(warmup=0, repeats=1))
        store = tmp_path / "cache"
        first = run_cached(request,
                           cache=ResultCache(disk_dir=str(store)),
                           workload=wl)
        assert self._corrupt_all(store / "results") == 1

        fresh = ResultCache(disk_dir=str(store))
        with pytest.warns(CorruptEntryWarning):
            healed = run_cached(request, cache=fresh, workload=wl)
        assert healed.metrics == first.metrics
        assert fresh.memo.cache_info().misses == 1  # corruption: a miss
        assert (store / "results" / QUARANTINE_DIR).exists()
        # the store healed: a third cache sees a clean disk hit
        again = ResultCache(disk_dir=str(store))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_cached(request, cache=again, workload=wl)
        assert again.memo.cache_info().disk_hits == 1

    def test_tuning_db_heals_a_corrupt_record(self, tmp_path):
        from repro.harness.runner import MeasurementProtocol
        from repro.tuning.db import TuningDB
        from repro.tuning.tuner import Tuner
        from repro.workloads import get_workload

        wl = get_workload("stencil")
        request = wl.make_request(
            params={"L": 20}, verify=False,
            protocol=MeasurementProtocol(warmup=0, repeats=1))
        store = tmp_path / "tune"
        db = TuningDB(disk_dir=str(store))
        outcome = Tuner(wl, request, db=db, budget=3, probe=False).search()
        assert outcome.record is not None
        assert self._corrupt_all(store / "records") == 1

        space = wl.tuning_space(request)
        fresh = TuningDB(disk_dir=str(store))
        with pytest.warns(CorruptEntryWarning):
            assert fresh.get(request, space) is None  # miss, not a crash
        assert (store / "records" / QUARANTINE_DIR).exists()
        # re-tuning repopulates the store over the quarantined wreckage
        Tuner(wl, request, db=fresh, budget=3, probe=False).search()
        again = TuningDB(disk_dir=str(store))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert again.get(request, space) is not None


class TestResultCacheBudget:
    def test_result_cache_disk_store_respects_budget(self, tmp_path,
                                                      monkeypatch):
        from repro.harness.runner import MeasurementProtocol
        from repro.workloads import cache as cache_module
        from repro.workloads import get_workload
        from repro.workloads.cache import ResultCache, run_cached

        wl = get_workload("stencil")
        protocol = MeasurementProtocol(warmup=0, repeats=1)

        def request(L):
            return wl.make_request(params={"L": L}, verify=False,
                                   protocol=protocol)

        probe = ResultCache(disk_dir=str(tmp_path / "probe"))
        run_cached(request(32), cache=probe, workload=wl)
        results = tmp_path / "probe" / "results"
        [entry] = list(results.iterdir())
        size = entry.stat().st_size

        monkeypatch.setattr(cache_module, "CACHE_DISK_BUDGET",
                            int(size * 2.5))
        cache = ResultCache(disk_dir=str(tmp_path / "store"))
        for L in (16, 24, 32, 48, 64):
            run_cached(request(L), cache=cache, workload=wl)
        stored = list((tmp_path / "store" / "results").iterdir())
        assert len(stored) <= 3


class TestStoreCompatibility:
    """Entries written in the v1 layout (path, digest, schema) read back as
    disk hits, so existing ``.repro_cache/`` and ``.repro_tune/`` stores
    stay warm."""

    @staticmethod
    def _digest(text):
        import hashlib

        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]

    def _request(self):
        from repro.harness.runner import MeasurementProtocol
        from repro.workloads import get_workload

        wl = get_workload("stencil")
        return wl, wl.make_request(
            params={"L": 20}, verify=False,
            protocol=MeasurementProtocol(warmup=0, repeats=1))

    def _result_entry(self, store, wl, request):
        from repro import __version__

        canonical = json.dumps(request.as_dict(), sort_keys=True, default=str)
        digest = self._digest(f"{__version__}|{canonical}")
        path = store / "results" / f"stencil-{digest}.json"
        result = wl.run(request)
        write_json_entry(str(path), {"schema": "repro.result-cache/v1",
                                     "result": result.as_dict()}, 0)
        return path, result

    def _tuning_entry(self, store, request):
        from repro import __version__

        canonical = json.dumps({
            "workload": "stencil", "gpu": request.gpu,
            "backend": request.backend, "precision": request.precision,
            "params": dict(sorted(request.params.items())),
            "fields": {"fast_math": request.fast_math},
        }, sort_keys=True, default=str)
        digest = self._digest(
            f"repro.tuning-record/v1|{__version__}|{canonical}")
        path = store / "records" / f"stencil-{digest}.json"
        write_json_entry(str(path), {
            "schema": "repro.tuning-record/v1", "workload": "stencil",
            "gpu": request.gpu, "backend": request.backend,
            "precision": request.precision, "key_params": {"L": 20},
            "config": {"params": {"block_shape": [4, 4, 4]}, "fields": {}},
            "score_ms": 0.007, "baseline_ms": 0.02, "modelled_ms": 0.01,
            "strategy": "exhaustive", "budget": 8, "space_size": 36,
            "pruned": 12, "measured": 8}, 0)
        return path

    def test_result_entry_is_a_disk_hit(self, tmp_path):
        from repro.workloads.cache import ResultCache

        wl, request = self._request()
        _, result = self._result_entry(tmp_path, wl, request)
        cache = ResultCache(disk_dir=str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hit = cache.get(request)
        assert hit is not None and hit.metrics == result.metrics
        assert cache.memo.cache_info() == (1, 0, 1, 0, 1)

    def test_tuning_entry_is_a_disk_hit(self, tmp_path):
        from repro.tuning.db import TuningDB

        _, request = self._request()
        self._tuning_entry(tmp_path, request)
        db = TuningDB(disk_dir=str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = db.get(request)
        assert record is not None and record.score_ms == 0.007
        assert record.config.params["block_shape"] == (4, 4, 4)
        assert db.memo.cache_info() == (1, 0, 1, 0, 1)

    def test_corrupt_entries_are_still_quarantined(self, tmp_path):
        from repro.tuning.db import TuningDB
        from repro.workloads.cache import ResultCache

        wl, request = self._request()
        paths = [self._result_entry(tmp_path, wl, request)[0],
                 self._tuning_entry(tmp_path, request)]
        for path in paths:
            path.write_text(path.read_text().replace("0.007", "0.008")
                            .replace('"ran"', '"RAN"'))
        for store in (ResultCache(disk_dir=str(tmp_path)),
                      TuningDB(disk_dir=str(tmp_path))):
            with pytest.warns(CorruptEntryWarning, match="checksum"):
                assert store.get(request) is None
            assert store.memo.cache_info() == (0, 1, 0, 0, 0)
        for path in paths:
            assert not path.exists()
            assert (path.parent / QUARANTINE_DIR / path.name).exists()
