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
formats and ``--rules`` subsets can never alias each other.  Entries
are one JSON file each, published atomically through
:mod:`repro.storage` with an **embedded** checksum envelope (JSON can
carry its own header, so no sidecar file per entry)::

    {"envelope": {"envelope": 1, "kind": "analysis-cache",
                  "schema": "v1", "sha256": "<record digest>"},
     "record": {...}}

A corrupt, torn, or pre-envelope entry is quarantined (moved to
``<cache dir>/quarantine/``, never deleted) and treated as a miss; a
read-only or full cache directory degrades to uncached operation,
counted in the store's :class:`~repro.storage.StorageReport`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..storage import (
    ENVELOPE_VERSION,
    Quarantine,
    StorageReport,
    canonical_digest,
    is_readonly_error,
    publish_bytes,
)

#: Bump when rule logic, the facts schema, or the record layout changes.
CACHE_VERSION = 1

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".lint-cache")

#: Envelope identity of analysis-cache entries.
ENVELOPE_KIND = "analysis-cache"
ENVELOPE_SCHEMA = f"v{CACHE_VERSION}"


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry_key(digest: str, rule_ids: Sequence[str]) -> str:
    """Cache key for one file's analysis under one rule set."""
    blob = f"v{CACHE_VERSION}::{digest}::{','.join(rule_ids)}"
    return hashlib.sha256(blob.encode()).hexdigest()


class AnalysisCache:
    """Directory of ``<key>.json`` analysis records."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.report = StorageReport()
        self._q = Quarantine(
            directory, label=f"analysis-cache at {directory}",
            report=self.report,
        )
        self._disabled = False

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._entry_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            envelope = payload["envelope"]
            record = payload["record"]
            if (
                not isinstance(envelope, dict)
                or not isinstance(record, dict)
                or envelope.get("envelope") != ENVELOPE_VERSION
                or envelope.get("schema") != ENVELOPE_SCHEMA
            ):
                raise ValueError("missing or stale embedded envelope")
            if envelope.get("sha256") != canonical_digest(record):
                raise ValueError("record checksum mismatch")
        except (KeyError, ValueError) as exc:
            # Garbled, torn, or pre-envelope entry: quarantine it (a
            # corruption bug stays inspectable) and recompute.
            self._q.take(path, str(exc))
            self.misses += 1
            return None
        self.report.verified += 1
        self.hits += 1
        return record

    def store(self, key: str, record: Dict[str, Any]) -> None:
        if self._disabled:
            return
        payload = {
            "envelope": {
                "envelope": ENVELOPE_VERSION,
                "kind": ENVELOPE_KIND,
                "schema": ENVELOPE_SCHEMA,
                "sha256": canonical_digest(record),
            },
            "record": record,
        }
        try:
            publish_bytes(
                self._entry_path(key),
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                surface=ENVELOPE_KIND,
                report=self.report,
            )
        except OSError as exc:
            # A read-only or full disk degrades to uncached operation;
            # the atomic writer guarantees nothing partial was left.
            self.report.publish_errors += 1
            if is_readonly_error(exc):
                self._disabled = True
                self.report.readonly_fallbacks += 1
