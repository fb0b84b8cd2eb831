"""Checksum envelopes: verified reads, graceful degradation, quarantine."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.storage import (
    QUARANTINE_DIR,
    Envelope,
    IntegrityError,
    Quarantine,
    StorageReport,
    publish_bytes,
    read_sidecar,
    sidecar_path,
    verified_read,
    write_sidecar,
)

from . import KEYS, STORES

PAYLOAD = b"eight hundred frames of 240p video"


def make_store(tmp_path, name="entry.bin", schema="v1/test"):
    """Publish one enveloped artifact and return (path, quarantine)."""
    root = tmp_path / "store"
    path = root / name
    digest = publish_bytes(path, PAYLOAD)
    write_sidecar(
        path, kind="test", schema=schema, digest=digest, size=len(PAYLOAD)
    )
    report = StorageReport()
    return path, Quarantine(root, label="test store", report=report)


def test_verified_read_roundtrip(tmp_path):
    path, quarantine = make_store(tmp_path)
    data = verified_read(path, quarantine=quarantine, expected_schema="v1/test")
    assert data == PAYLOAD
    assert quarantine.report.verified == 1
    assert quarantine.count == 0


def test_sidecar_payload_roundtrip(tmp_path):
    path, _ = make_store(tmp_path)
    envelope = read_sidecar(path)
    assert envelope is not None
    assert envelope == Envelope.from_payload(envelope.to_payload())
    assert envelope.size == len(PAYLOAD)


def test_missing_artifact_is_a_plain_miss(tmp_path):
    _, quarantine = make_store(tmp_path)
    assert verified_read(
        tmp_path / "store" / "absent.bin", quarantine=quarantine
    ) is None
    assert quarantine.count == 0


def test_artifact_without_sidecar_is_a_plain_miss(tmp_path):
    """A publish that died before its sidecar: a miss, left in place
    (not quarantined) for the next publish to replace."""
    path, quarantine = make_store(tmp_path)
    sidecar_path(path).unlink()
    assert verified_read(path, quarantine=quarantine) is None
    assert quarantine.count == 0
    assert quarantine.report.verified == 0
    assert path.exists()


def test_corrupt_artifact_is_quarantined_not_raised(tmp_path):
    path, quarantine = make_store(tmp_path)
    path.write_bytes(PAYLOAD[: len(PAYLOAD) // 2])
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert verified_read(path, quarantine=quarantine) is None
    assert quarantine.count == 1
    # Moved — artifact and sidecar both — never deleted.
    assert not path.exists() and not sidecar_path(path).exists()
    names = {p.name for p in quarantine.directory.iterdir()}
    assert names == {path.name, sidecar_path(path).name}


def test_quarantine_warns_once_per_store(tmp_path):
    first, quarantine = make_store(tmp_path, name="a.bin")
    second = tmp_path / "store" / "b.bin"
    digest = publish_bytes(second, PAYLOAD)
    write_sidecar(
        second, kind="test", schema="v1/test", digest=digest,
        size=len(PAYLOAD),
    )
    first.write_bytes(b"x")
    second.write_bytes(b"y")
    with pytest.warns(RuntimeWarning):
        verified_read(first, quarantine=quarantine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        verified_read(second, quarantine=quarantine)
    assert quarantine.count == 2


def test_schema_drift_is_quarantined_as_a_miss(tmp_path):
    path, quarantine = make_store(tmp_path, schema="v1/old")
    with pytest.warns(RuntimeWarning, match="schema drift"):
        assert verified_read(
            path, quarantine=quarantine, expected_schema="v2/new"
        ) is None
    assert quarantine.count == 1


def test_garbled_sidecar_quarantines_the_pair(tmp_path):
    path, quarantine = make_store(tmp_path)
    sidecar_path(path).write_text("{not json")
    with pytest.warns(RuntimeWarning):
        assert verified_read(path, quarantine=quarantine) is None
    assert quarantine.count == 1
    assert not path.exists()


def test_unsupported_envelope_version_is_integrity_error(tmp_path):
    path, _ = make_store(tmp_path)
    payload = json.loads(sidecar_path(path).read_text())
    payload["envelope"] = 99
    sidecar_path(path).write_text(json.dumps(payload))
    with pytest.raises(IntegrityError, match="unsupported envelope"):
        read_sidecar(path)


# ----------------------------------------------------------------------
# The same contract through each store: result, trace and lint caches
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(STORES))
def test_store_roundtrip(tmp_path, kind):
    case = STORES[kind]
    store = case.make(tmp_path)
    assert store.get(KEYS[0]) is None and not store.contains(KEYS[0])
    store.put(KEYS[0], case.value)
    assert store.contains(KEYS[0])
    assert store.keys() == [KEYS[0]]
    assert case.same(store.get(KEYS[0]), case.value)
    assert store.report.verified == 1
    assert store.quarantined == 0


@pytest.mark.parametrize("kind", sorted(STORES))
def test_store_corrupt_entry_is_quarantined_as_a_miss(tmp_path, kind):
    case = STORES[kind]
    store = case.make(tmp_path)
    for key in KEYS[:2]:
        store.put(key, case.value)
        path = store.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert store.get(KEYS[0]) is None
        assert store.get(KEYS[1]) is None
    assert [str(w.message) for w in caught if "quarantined" in str(w.message)]
    assert len(caught) == 1  # one warning per store, not per entry
    assert store.quarantined == 2
    assert store.keys() == []
    names = {p.name for p in (tmp_path / QUARANTINE_DIR).iterdir()}
    assert store.path_for(KEYS[0]).name in names


@pytest.mark.parametrize("kind", sorted(STORES))
def test_store_entry_without_sidecar_is_a_miss(tmp_path, kind):
    case = STORES[kind]
    store = case.make(tmp_path)
    store.put(KEYS[0], case.value)
    sidecar_path(store.path_for(KEYS[0])).unlink()
    assert not store.contains(KEYS[0])
    assert store.get(KEYS[0]) is None
    assert store.quarantined == 0
    assert store.path_for(KEYS[0]).exists()
