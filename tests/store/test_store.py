"""ExperimentStore unit behaviour: addressing, atomicity, gc, provenance."""

import base64
import json
import os

import numpy as np
import pytest

from repro import __version__
from repro.scenarios import ScenarioRunner, get_scenario
from repro.store import ENTRY_SCHEMA, ExperimentStore, StoreError, validate_entry


@pytest.fixture(scope="module")
def result():
    spec = get_scenario("paper-baseline").with_overrides({"duration_days": 2})
    return ScenarioRunner(spec).run()


@pytest.fixture()
def store(tmp_path):
    return ExperimentStore(str(tmp_path / "es"))


def test_put_then_get_round_trips_with_provenance(store, result):
    key = store.put(result, manifest={"schema": "repro-telemetry/1"})
    assert key == result.spec.sha256()
    assert key in store
    assert len(store) == 1

    entry = store.get_entry(key)
    assert entry.key == key
    assert entry.scenario == result.spec.name
    assert entry.seed == result.spec.seed
    assert entry.duration_days == result.spec.duration_days
    assert entry.repro_version == __version__
    assert entry.manifest == {"schema": "repro-telemetry/1"}
    assert entry.result.summary_dict() == result.summary_dict()


def test_put_is_idempotent_and_byte_stable(store, result):
    key = store.put(result)
    first = open(store.path_for(key), "rb").read()
    assert store.put(result) == key
    assert open(store.path_for(key), "rb").read() == first


def test_entry_files_validate_and_carry_the_schema(store, result):
    key = store.put(result)
    with open(store.path_for(key), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_entry(payload)
    assert payload["schema"] == ENTRY_SCHEMA
    assert payload["spec_sha256"] == key


def test_missing_and_corrupt_entries(store, result):
    key = result.spec.sha256()
    with pytest.raises(StoreError, match="no stored entry"):
        store.get_entry(key)
    assert store.get_entry_or_none(key) is None

    # A corrupt file (outside the atomic writer's control) is a miss for
    # the sweep path and an error for the strict path.
    store.put(result)
    with open(store.path_for(key), "w", encoding="utf-8") as handle:
        handle.write('{"schema": "repro-store/1"')
    with pytest.raises(StoreError):
        store.get_entry(key)
    assert store.get_entry_or_none(key) is None


def test_content_address_is_enforced(store, result):
    key = store.put(result)
    # A valid entry copied under the wrong name must not load.
    other = key[:-4] + ("0000" if not key.endswith("0000") else "1111")
    os.rename(store.path_for(key), store.path_for(other))
    with pytest.raises(StoreError):
        store.get_entry(other)
    assert store.get_entry_or_none(other) is None


def test_keys_are_sorted_and_prefixes_resolve(store, result):
    spec2 = result.spec.with_overrides({"seed": 7})
    result2 = ScenarioRunner(spec2).run()
    k1, k2 = store.put(result), store.put(result2)
    assert store.keys() == sorted([k1, k2])
    assert store.resolve(k1[:10]) == k1
    assert store.resolve(k2) == k2
    with pytest.raises(StoreError, match="no stored entry"):
        store.resolve("zzzz")  # matches no hex key
    common = os.path.commonprefix([k1, k2])
    if common:
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve(common)


def test_gc_removes_debris_and_keeps_valid_entries(store, result):
    key = store.put(result)
    results_dir = store.results_dir
    tmp = os.path.join(results_dir, ".orphan.json.abc123.tmp")
    open(tmp, "w").close()
    corrupt = store.path_for("f" * 64)
    with open(corrupt, "w") as handle:
        handle.write("not json")

    removed = store.gc()
    assert sorted(removed) == sorted([tmp, corrupt])
    assert not os.path.exists(tmp) and not os.path.exists(corrupt)
    assert store.keys() == [key]
    assert store.get_entry(key).result.summary_dict() == result.summary_dict()
    assert store.gc() == []


def test_empty_store_lists_nothing(store):
    assert store.keys() == []
    assert len(store) == 0
    assert list(store.entries()) == []
    assert store.gc() == []


def test_path_for_rejects_non_hashes(store):
    with pytest.raises(StoreError, match="not a spec hash"):
        store.path_for("../escape")
    with pytest.raises(StoreError, match="not a spec hash"):
        store.path_for("abc")


DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

#: A ``repro-result/2`` entry whose spec still carries the retired
#: ``execution.block_days`` / ``execution.shards`` keys: carbon-buffer,
#: 2 x 4 phones, one day, no latency probe.
RETIRED_KEYS_ENTRY = os.path.join(DATA_DIR, "entry_with_retired_execution_keys.json")

#: The same experiment as written by the ``repro-result/1`` codec (decimal
#: arrays, every site series stored), kept byte-for-byte.
RESULT_1_ENTRY = os.path.join(DATA_DIR, "entry_repro_result_1.json")


def _store_holding(tmp_path, payload):
    """A store whose only entry is ``payload``, written verbatim."""
    store = ExperimentStore(str(tmp_path / "es"))
    os.makedirs(store.results_dir)
    with open(store.path_for(payload["spec_sha256"]), "w") as handle:
        json.dump(payload, handle)
    return store


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def retired_keys_store(tmp_path):
    payload = _load(RETIRED_KEYS_ENTRY)
    return _store_holding(tmp_path, payload), payload


def test_entry_with_retired_execution_keys_loads_unchanged(retired_keys_store):
    store, payload = retired_keys_store
    key = payload["spec_sha256"]
    assert payload["result"]["spec"]["execution"] == {
        "audit": False,
        "block_days": 1,
        "shards": 1,
    }
    entry = store.get_entry(key)
    assert store.get_entry_or_none(key) is not None
    # Everything but the two retired keys round-trips bit for bit, and a
    # fresh simulation of the loaded spec reproduces the stored payload.
    expected = payload["result"]
    expected["spec"]["execution"] = {"audit": False}
    canonical = json.dumps(expected, sort_keys=True)
    assert json.dumps(entry.result.to_dict(), sort_keys=True) == canonical
    rerun = ScenarioRunner(entry.result.spec).run()
    assert json.dumps(rerun.to_dict(), sort_keys=True) == canonical


def test_gc_keeps_entry_with_retired_execution_keys(retired_keys_store):
    store, payload = retired_keys_store
    assert store.gc() == []
    assert store.keys() == [payload["spec_sha256"]]


def test_repro_result_1_entry_is_a_miss_and_gc_removes_it(tmp_path):
    payload = _load(RESULT_1_ENTRY)
    assert payload["result"]["schema"] == "repro-result/1"
    store = _store_holding(tmp_path, payload)
    key = payload["spec_sha256"]
    with pytest.raises(StoreError, match="repro-result/1"):
        store.get_entry(key)
    assert store.get_entry_or_none(key) is None
    assert store.gc() == [store.path_for(key)]
    assert store.keys() == []


def _edit_array(field, **changes):
    def edit(report):
        report[field].update(changes)

    return edit


def _drop_last_element(report):
    array = report["cohort_energy_kwh"]
    array["data"] = base64.b64encode(base64.b64decode(array["data"])[:-8]).decode()


def _site_index(values):
    def edit(report):
        raw = np.array(values, dtype="<i8").tobytes()
        report["cohort_site_index"]["data"] = base64.b64encode(raw).decode()

    return edit


#: Hand edits to a stored report, each one the decoder or the report's
#: validation must refuse, with the message it refuses with.
MALFORMED_REPORTS = {
    "float32-dtype": (_edit_array("cohort_energy_kwh", dtype="<f4"), "dtype"),
    "big-endian-dtype": (_edit_array("cohort_energy_kwh", dtype=">f8"), "dtype"),
    "bad-base64": (_edit_array("cohort_energy_kwh", data="not base64!"), "not base64"),
    "negative-shape": (
        _edit_array("cohort_energy_kwh", shape=[-24, -2]),
        "non-negative integers",
    ),
    "short-data": (_drop_last_element, "needs 384"),
    "decreasing-site-index": (_site_index([1, 0]), "nondecreasing"),
    "site-without-cohort": (_site_index([0, 0]), "at least one cohort"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_hand_edited_entry_is_a_miss_and_gc_removes_it(tmp_path, case):
    edit, message = MALFORMED_REPORTS[case]
    payload = _load(RETIRED_KEYS_ENTRY)
    edit(payload["result"]["report"])
    store = _store_holding(tmp_path, payload)
    key = payload["spec_sha256"]
    with pytest.raises(StoreError, match=message):
        store.get_entry(key)
    assert store.get_entry_or_none(key) is None
    assert store.gc() == [store.path_for(key)]
    assert store.keys() == []
