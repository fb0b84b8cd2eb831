"""Cache-corruption tests: quarantine, single warning, exact recovery."""

from __future__ import annotations

import warnings

from repro.experiments.parallel import (
    FabricReport,
    ResultCache,
    SessionSpec,
    cache_key,
    run_sessions,
)
from repro.storage import QUARANTINE_DIR


def _spec(seed=7, **overrides):
    base = dict(
        device="nexus5", resolution="240p", fps=30, pressure="normal",
        client=None, duration_s=2.0, seed=seed,
    )
    base.update(overrides)
    return SessionSpec(**base)


def test_corrupt_entries_quarantined_with_one_warning(tmp_path):
    specs = [_spec(seed=s) for s in (1, 2, 3)]
    populate = ResultCache(tmp_path / "cache")
    clean = run_sessions(specs, cache=populate)

    # Damage two of the three entries in different ways.
    truncated = populate.path_for(cache_key(specs[0]))
    truncated.write_bytes(truncated.read_bytes()[:16])
    flipped = populate.path_for(cache_key(specs[1]))
    blob = bytearray(flipped.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    flipped.write_bytes(bytes(blob))

    store = ResultCache(tmp_path / "cache")
    report = FabricReport()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recovered = run_sessions(specs, cache=store, report=report)

    assert recovered == clean  # recomputed jobs are bit-identical
    assert report.quarantined == 2
    assert report.computed == 2
    assert report.cache_hits == 1
    quarantine = tmp_path / "cache" / QUARANTINE_DIR
    assert sorted(p.name for p in quarantine.glob("*.pkl")) == sorted(
        (truncated.name, flipped.name)
    )
    quarantine_warnings = [
        w for w in caught if "quarantined" in str(w.message)
    ]
    assert len(quarantine_warnings) == 1  # one warning, not one per entry
    assert issubclass(quarantine_warnings[0].category, RuntimeWarning)

    # The damaged entries were rewritten: a third run is all cache hits.
    rerun_report = FabricReport()
    rerun = run_sessions(
        specs, cache=ResultCache(tmp_path / "cache"), report=rerun_report
    )
    assert rerun == clean
    assert rerun_report.cache_hits == 3
    assert rerun_report.quarantined == 0
