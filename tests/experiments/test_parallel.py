"""Tests for the parallel experiment fabric and the result cache.

The fabric's contract is *bit-identical results* across the serial
path, the process-pool path, and the cache-hit path; these tests pin
that contract plus the cache's failure modes (corruption, schema
drift) and the CLI's ``--no-cache`` escape hatch.
"""

from __future__ import annotations

import pickle

import pytest

from repro import cli
from repro.experiments import parallel
from repro.experiments.parallel import (
    ResultCache,
    SessionSpec,
    cache_key,
    effective_jobs,
    repetition_seeds,
    run_sessions,
)
from repro.experiments.runner import run_cell, run_cells
from repro.video.player import SessionResult

#: A deliberately tiny cell: enough simulated time to exercise the
#: full pipeline, small enough to run many times per test session.
CELL = dict(
    device="nexus5", resolution="240p", fps=30,
    pressure="normal", duration_s=4.0, repetitions=2,
)


def _cell(jobs=None, cache=False, **overrides):
    return run_cell(**{**CELL, **overrides}, jobs=jobs, cache=cache)


# ----------------------------------------------------------------------
# Determinism: serial == parallel == cached
# ----------------------------------------------------------------------

def test_serial_parallel_and_cache_results_identical(tmp_path):
    """The ISSUE's core guarantee, as a regression test: the same seed
    yields an identical SessionResult (frame counts, crashes, PSS
    series, signals — every field) whether the session ran serially,
    across 4 worker processes, or out of a cache hit."""
    serial = _cell()
    parallel_run = _cell(jobs=4)

    store = ResultCache(tmp_path / "cache")
    populate = _cell(cache=store)  # cold: computes and fills the cache
    cached = _cell(cache=store)    # warm: served purely from disk
    assert store.hits == CELL["repetitions"]  # every warm rep from disk

    for other in (parallel_run, populate, cached):
        assert serial.results == other.results  # full dataclass equality
    assert serial.results[0] != serial.results[1]  # reps differ (seeds)


def test_seed_schedule_is_deterministic():
    assert repetition_seeds(100, 3) == [100, 8019, 15938]
    a = _cell()
    b = _cell()
    assert a.results == b.results


def test_grid_parallel_matches_serial():
    cells = [
        {**CELL, "resolution": "240p"},
        {**CELL, "resolution": "360p"},
    ]
    serial = run_cells(cells, cache=False)
    fanned = run_cells(cells, jobs=3, cache=False)
    assert [c.results for c in serial] == [c.results for c in fanned]
    assert [c.resolution for c in serial] == ["240p", "360p"]


def test_three_cell_grid_digest_identical_across_paths(tmp_path):
    """Byte-level determinism over a whole grid: a 3-cell sweep pickles
    identically whether it ran serially, over 4 worker processes, or as
    a pure cache replay."""
    cells = [
        {**CELL, "resolution": resolution}
        for resolution in ("240p", "360p", "480p")
    ]
    serial = run_cells(cells, jobs=1, cache=False)
    fanned = run_cells(cells, jobs=4, cache=False)
    store = ResultCache(tmp_path / "cache")
    run_cells(cells, cache=store)            # cold: fills the cache
    replayed = run_cells(cells, cache=store)  # warm: pure replay
    assert store.hits == len(cells) * CELL["repetitions"]

    # Per-result pickles (a shared container would add memo references
    # that depend on which path produced the objects, not their values).
    def digests(grid):
        return [pickle.dumps(r) for cell in grid for r in cell.results]

    digest = digests(serial)
    assert digests(fanned) == digest
    assert digests(replayed) == digest


def test_shared_abr_instance_runs_in_process(tmp_path):
    """A shared (non-callable) ABR instance must neither be cached nor
    shipped to a worker copy."""

    class Controller:  # a shared instance, not a factory
        def choose_representation(self, player):
            return None

        def on_pressure_signal(self, player, level):
            return None

    instance = Controller()
    spec = SessionSpec(
        device="nexus5", resolution="240p", fps=30, pressure="normal",
        client=None, duration_s=4.0, seed=1, abr=instance,
    )
    assert not spec.cacheable
    assert not spec.parallel_safe
    store = ResultCache(tmp_path / "cache")
    results = run_sessions([spec], jobs=4, cache=store)
    assert isinstance(results[0], SessionResult)
    assert store.hits == 0 and store.misses == 0  # never consulted


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------

def _spec(seed=7, **overrides):
    base = dict(
        device="nexus5", resolution="240p", fps=30, pressure="normal",
        client=None, duration_s=4.0, seed=seed,
    )
    base.update(overrides)
    return SessionSpec(**base)


def test_cache_miss_then_hit(tmp_path):
    store = ResultCache(tmp_path)
    [result] = run_sessions([_spec()], cache=store)
    assert (store.hits, store.misses) == (0, 1)
    [again] = run_sessions([_spec()], cache=store)
    assert (store.hits, store.misses) == (1, 1)
    assert result == again


def test_cache_key_separates_configs():
    base = _spec()
    assert cache_key(base) == cache_key(_spec())
    for other in (
        _spec(seed=8),
        _spec(fps=60),
        _spec(resolution="360p"),
        _spec(pressure="moderate"),
        _spec(client="chrome"),
        _spec(duration_s=5.0),
        _spec(organic_apps=2),
    ):
        assert cache_key(other) != cache_key(base)


def test_schema_version_bump_invalidates(tmp_path, monkeypatch):
    store = ResultCache(tmp_path)
    run_sessions([_spec()], cache=store)
    monkeypatch.setattr(parallel, "SCHEMA_VERSION", parallel.SCHEMA_VERSION + 1)
    run_sessions([_spec()], cache=store)
    assert store.hits == 0  # old entry no longer addressable
    assert store.misses == 2


def test_corrupt_entry_is_recomputed_and_replaced(tmp_path):
    store = ResultCache(tmp_path)
    [clean] = run_sessions([_spec()], cache=store)
    path = store.path_for(cache_key(_spec()))
    path.write_bytes(b"not a pickle")
    with pytest.warns(RuntimeWarning, match="quarantined"):
        [recovered] = run_sessions([_spec()], cache=store)
    assert recovered == clean
    assert store.quarantined == 1
    # ... and the rewritten entry is valid again:
    with path.open("rb") as fh:
        assert pickle.load(fh) == clean


def test_truncated_entry_is_recomputed_and_replaced(tmp_path):
    """A partial write (crash mid-put, full disk) must read as a miss,
    not an exception — and the entry must come back valid."""
    store = ResultCache(tmp_path)
    [clean] = run_sessions([_spec()], cache=store)
    path = store.path_for(cache_key(_spec()))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.warns(RuntimeWarning, match="quarantined"):
        [recovered] = run_sessions([_spec()], cache=store)
    assert recovered == clean
    with path.open("rb") as fh:
        assert pickle.load(fh) == clean


def test_wrong_payload_type_is_a_miss(tmp_path):
    store = ResultCache(tmp_path)
    key = cache_key(_spec())
    store.put(key, {"not": "a result"})
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert store.get(key) is None


def test_resolve_cache_modes(tmp_path, monkeypatch):
    assert parallel.resolve_cache(False) is None
    store = ResultCache(tmp_path)
    assert parallel.resolve_cache(store) is store
    monkeypatch.setenv(parallel.CACHE_DISABLE_ENV, "1")
    assert parallel.resolve_cache(None) is None
    monkeypatch.delenv(parallel.CACHE_DISABLE_ENV)
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path / "custom"))
    resolved = parallel.resolve_cache(None)
    assert resolved is not None
    assert resolved.root == tmp_path / "custom"


def test_effective_jobs_clamping():
    assert effective_jobs(None, 10) == 1
    assert effective_jobs(1, 10) == 1
    assert effective_jobs(4, 2) == 2
    assert effective_jobs(0, 99) >= 1  # all cores


# ----------------------------------------------------------------------
# CLI escape hatch
# ----------------------------------------------------------------------

@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cli-cache"
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(cache_dir))
    monkeypatch.delenv(parallel.CACHE_DISABLE_ENV, raising=False)
    return cache_dir


RUN_ARGS = ["run", "--device", "nexus5", "--resolution", "240p",
            "--fps", "30", "--duration", "4", "--json"]


def test_cli_populates_cache_by_default(cache_env, capsys):
    assert cli.main(RUN_ARGS) == 0
    capsys.readouterr()
    assert list(cache_env.rglob("*.pkl"))


def test_cli_no_cache_leaves_no_trace(cache_env, capsys):
    assert cli.main(RUN_ARGS + ["--no-cache"]) == 0
    out = capsys.readouterr().out
    assert '"drop_rate"' in out
    assert not cache_env.exists() or not list(cache_env.rglob("*.pkl"))


# ----------------------------------------------------------------------
# Generic job fabric (run_jobs / resolve_jobs)
# ----------------------------------------------------------------------

def _square(payload):
    return payload * payload


def test_run_jobs_serial_returns_in_order():
    results = parallel.run_jobs([1, 2, 3, 4], _square)
    assert results == [1, 4, 9, 16]


def test_run_jobs_pool_matches_serial():
    payloads = list(range(8))
    serial = parallel.run_jobs(payloads, _square)
    pooled = parallel.run_jobs(payloads, _square, jobs=2)
    assert pooled == serial


def test_run_jobs_journals_and_resumes(tmp_path):
    from repro.experiments.checkpoint import SweepJournal
    from repro.storage import JobFamily

    squares = JobFamily("squares", 1, int, lambda p: f"job{p}")
    payloads = [3, 5, 7]
    path = tmp_path / "jobs.journal"
    report = parallel.FabricReport()
    first = parallel.run_jobs(
        payloads, _square, family=squares,
        journal=SweepJournal(path, family=squares), report=report,
    )
    assert first == [9, 25, 49]
    assert report.computed == 3
    resumed = parallel.FabricReport()
    second = parallel.run_jobs(
        payloads, _square, family=squares,
        journal=SweepJournal(path, family=squares), report=resumed,
    )
    assert second == first
    assert resumed.computed == 0
    assert resumed.resumed == 3


def test_resolve_jobs_clamps_to_cores():
    cores = parallel._available_cores()
    assert parallel.resolve_jobs(None) is None
    assert parallel.resolve_jobs(0) == cores
    assert parallel.resolve_jobs(-1) == cores
    assert parallel.resolve_jobs(1) == 1
    assert parallel.resolve_jobs(cores + 7) == cores
