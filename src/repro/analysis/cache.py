"""Content-addressed per-file analysis cache.

A lint run spends nearly all of its time in per-file work: parsing,
single-file rules, and fact extraction (functions, taint summaries,
emit shapes, class shapes) for the whole-program passes.  All of that
is a pure function of the file's bytes and the rule set, so it is
cached under ``sha256(content)`` — the same content-address idiom the
experiment fabric uses for sweep results.

A cache *entry* stores the serialized :class:`~repro.analysis.engine.
FileAnalysis` — findings, suppressions, noqa map, and
:class:`~repro.analysis.project.FileFacts` — so a warm run re-analyzes
zero unchanged files and still runs every project rule against exact
facts.  Project-rule findings are never cached: they depend on the
whole target set, and recomputing them from cached facts is cheap.

The entry key mixes in :data:`CACHE_VERSION` (bumped whenever rule
logic or the facts schema changes shape) and the rule-id list, so stale
formats and ``--rules`` subsets can never alias each other.  The cache
is a :class:`~repro.storage.Store` with a JSON codec: one
``<dir>/<key[:2]>/<key>.json`` per entry plus its checksum sidecar, so
``repro fsck --root <dir>`` scrubs it like any other store.  A corrupt
or torn entry is quarantined (moved to ``<dir>/quarantine/``, never
deleted) and treated as a miss; a read-only or full cache directory
degrades to uncached operation, counted in the store's
:class:`~repro.storage.StorageReport`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Sequence

from ..storage import Codec, Store, sha256_hex

#: Bump when rule logic, the facts schema, or the record layout changes.
#: 2: entries moved from an embedded envelope to a fanned-out store with
#: checksum sidecars.  3: ``listeners("topic", "field", ...)`` calls
#: count as emit sites.
CACHE_VERSION = 3

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".lint-cache")


def entry_key(digest: str, rule_ids: Sequence[str]) -> str:
    """Cache key for one file's analysis under one rule set."""
    return sha256_hex(
        f"v{CACHE_VERSION}::{digest}::{','.join(rule_ids)}".encode()
    )


def _write_record(fh: IO[bytes], record: Dict[str, Any]) -> None:
    fh.write(json.dumps(record, sort_keys=True).encode("utf-8"))


def _read_record(data: bytes) -> Dict[str, Any]:
    record = json.loads(data.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("entry is not a JSON object")
    return record


class AnalysisCache(Store):
    """Store of per-file analysis records (JSON), keyed by
    :func:`entry_key`."""

    def __init__(self, directory: Path) -> None:
        super().__init__(
            directory,
            kind="analysis-cache",
            schema=f"v{CACHE_VERSION}",
            suffix=".json",
            codec=Codec(write=_write_record, read=_read_record),
        )
