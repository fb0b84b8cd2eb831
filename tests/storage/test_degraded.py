"""Degraded filesystems: read-only cache dirs and full disks.

The acceptance property (ISSUE/docs/robustness.md): a read-only
``REPRO_CACHE_DIR`` degrades to uncached operation with a single
warning, and ENOSPC mid-publish leaves no partial artifact behind.
Both conditions are injected deterministically through the storage
fault plan (``chmod`` is useless under root, and real full disks do
not fit in CI).
"""

from __future__ import annotations

import warnings

import pytest

from repro.experiments.parallel import ResultCache
from repro.faults.injector import Fault, installed_plan
from repro.storage import scrub

from . import DICTS, KEYS, STORES


def readonly_plan(tmp_path, count=1):
    faults = [
        Fault(point="storage:result-cache", kind="readonly")
        for _ in range(count)
    ]
    return installed_plan(faults, tmp_path / "ledger")


def test_readonly_cache_degrades_to_uncached_with_one_warning(tmp_path):
    store = ResultCache(tmp_path / "cache", DICTS)
    with readonly_plan(tmp_path, count=3):
        with pytest.warns(RuntimeWarning, match="falling back to uncached"):
            store.put("a" * 40, {"seed": 1})
        assert store.report.readonly_fallbacks == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            store.put("b" * 40, {"seed": 2})  # disabled: silently skipped
    # Nothing was cached; reads are plain misses, never errors.
    assert store.get("a" * 40) is None
    assert store.misses == 1
    # Only the (harmless) fan-out directory was created, no files.
    assert [p for p in (tmp_path / "cache").rglob("*") if p.is_file()] == []


def test_readonly_store_recovers_on_a_writable_rerun(tmp_path):
    root = tmp_path / "cache"
    crippled = ResultCache(root, DICTS)
    with readonly_plan(tmp_path):
        with pytest.warns(RuntimeWarning):
            crippled.put("c" * 40, {"seed": 3})
    # A fresh store over the same directory (next run) caches normally.
    healthy = ResultCache(root, DICTS)
    healthy.put("c" * 40, {"seed": 3})
    assert healthy.get("c" * 40) == {"seed": 3}
    assert scrub([root]).clean


def test_enospc_leaves_no_partial_artifact_and_no_orphans(tmp_path):
    root = tmp_path / "cache"
    store = ResultCache(root, DICTS)
    with installed_plan(
        [Fault(point="storage:result-cache", kind="enospc")],
        tmp_path / "ledger",
    ):
        store.put("d" * 40, {"seed": 4})  # swallowed: caching is optional
    assert store.report.publish_errors == 1
    assert store.report.readonly_fallbacks == 0  # transient, not disabling
    assert store.get("d" * 40) is None
    files = [p for p in root.rglob("*") if p.is_file()]
    assert files == []
    assert scrub([root]).clean

    # The disk "drained"; the same store publishes fine afterwards.
    store.put("d" * 40, {"seed": 4})
    assert store.get("d" * 40) == {"seed": 4}


# ----------------------------------------------------------------------
# The same contract through each store: result, trace and lint caches
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(STORES))
def test_store_puts_scrub_clean(tmp_path, kind):
    case = STORES[kind]
    store = case.make(tmp_path / "store")
    for key in KEYS:
        store.put(key, case.value)
    report = scrub([tmp_path / "store"])
    assert report.clean
    assert report.stores[0].verified == len(KEYS)
    assert scrub([tmp_path / "store"], repair=True).clean
    assert store.keys() == sorted(KEYS)


@pytest.mark.parametrize("kind", ["analysis-cache", "result-cache"])
def test_readonly_cache_store_degrades_with_one_warning(tmp_path, kind):
    case = STORES[kind]
    store = case.make(tmp_path / "store")
    faults = [Fault(point=f"storage:{kind}", kind="readonly")] * 2
    with installed_plan(faults, tmp_path / "ledger"):
        with pytest.warns(RuntimeWarning, match="falling back to uncached"):
            store.put(KEYS[0], case.value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            store.put(KEYS[1], case.value)  # disabled: silently skipped
    assert store.report.readonly_fallbacks == 1
    assert store.get(KEYS[0]) is None
    assert store.keys() == []


def test_readonly_trace_store_put_raises(tmp_path):
    case = STORES["trace-store"]
    store = case.make(tmp_path / "store")
    with installed_plan(
        [Fault(point="storage:trace-store", kind="readonly")],
        tmp_path / "ledger",
    ):
        with pytest.raises(PermissionError):
            store.put(KEYS[0], case.value)
    assert not store.contains(KEYS[0])
    # The store stays enabled: the retried put publishes.
    store.put(KEYS[0], case.value)
    assert case.same(store.get(KEYS[0]), case.value)
