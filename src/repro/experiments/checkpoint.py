"""Sweep checkpoint journal: incremental, resumable session results.

Long §3/§4 sweeps are exactly the multi-hour batch jobs that must
survive a SIGINT, SIGTERM, or killed host.  The journal makes every
fabric job durable the moment it finishes or is found in the cache:
:func:`~repro.experiments.parallel.run_jobs` appends one record per
such job, and a resumed run replays those records instead of
recomputing — bit-identical to an uninterrupted run, because a record
is keyed by the job's content address and a job fully determines its
result.

Format (documented in ``docs/robustness.md``): a line-oriented JSON
file.  The first line is a header naming the job family
(:class:`~repro.storage.JobFamily`: ``repro-sweep``, ``repro-fleet``,
``repro-arena``, ``repro-trace-record``, ``repro-trace-analytics``)::

    {"journal": "repro-sweep", "version": 2, "schema": <family schema>}

and every subsequent line is one completed job::

    {"key": "<sha256 spec digest>", "result": "<base64 pickle>", "crc": "<crc32>"}

Appends are flushed per record, so a crash loses at most the record
being written; the header and the final state are additionally fsynced
(open and close are the two moments an OS crash could otherwise lose
acknowledged work wholesale).  The per-record CRC-32 — computed over
``key + "\\x00" + result`` — is what makes truncated-tail detection
exact: a torn line either fails to parse or fails its CRC, is counted
in :attr:`SweepJournal.skipped`, and resume skips exactly that record
rather than trusting whatever happens to parse; a record without a
CRC is skipped the same way.  A journal whose header names another
family, version or schema is stale or foreign (its results would not
be comparable) and is discarded wholesale.
"""

from __future__ import annotations

import base64
import json
import pickle
from contextlib import suppress
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Optional

from ..storage import (
    JobFamily,
    canonical_digest,
    fsync_handle,
    open_journal,
    read_journal,
    record_crc,
)
from .parallel import SWEEP_JOBS, default_cache_dir

JOURNAL_VERSION = 2


def default_journal_path(
    family: JobFamily, payloads: Iterable[Any], root: Optional[Path] = None
) -> Path:
    """``<cache root>/journals/<family>-<run digest>.journal``.

    The run digest hashes the sorted keys of the journaled ``payloads``
    (``family.key``), so re-running the same command line finds its own
    journal and a different grid gets a fresh one.
    """
    base = root if root is not None else default_cache_dir()
    keys = [key for key in map(family.key, payloads) if key is not None]
    digest = canonical_digest(sorted(keys))[:16]
    return base / "journals" / f"{family.name}-{digest}.journal"


class SweepJournal:
    """Append-only checkpoint store for one sweep.

    ``resume=True`` loads any compatible existing journal and appends
    to it; ``resume=False`` truncates and starts fresh.  The journal is
    left in place after a successful sweep — resuming a finished sweep
    is a cheap no-op that replays every record.
    """

    def __init__(
        self,
        path: Path | str,
        resume: bool = True,
        *,
        family: JobFamily = SWEEP_JOBS,
    ) -> None:
        self.path = Path(path)
        self.resume = resume
        #: Header magic and schema stamp, and the record payload type
        #: accepted on load: a stale or foreign journal is discarded.
        self.family = family
        #: Records written by this process (not counting loaded ones).
        self.recorded = 0
        #: Corrupt or truncated lines skipped during :meth:`begin`.
        self.skipped = 0
        self._fh: Optional[IO[str]] = None

    # ------------------------------------------------------------------
    def begin(self) -> Dict[str, Any]:
        """Open the journal and return the resumable results.

        Returns ``{}`` when starting fresh, when no journal exists yet,
        or when the existing file's header is missing, malformed, or
        from a different schema version (a stale journal must not leak
        incomparable results into a new sweep).
        """
        entries: Dict[str, Any] = {}
        header_ok = False
        if self.resume:
            entries, header_ok = self._load()
        if header_ok:
            self._fh = open_journal(self.path, fresh=False)
        else:
            self._fh = open_journal(self.path, fresh=True)
            header = {
                "journal": self.family.magic,
                "version": JOURNAL_VERSION,
                "schema": self.family.schema,
            }
            self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            # An OS crash after begin() must not be able to lose the
            # header: records appended later would then parse as a
            # headerless (= discarded) journal.
            fsync_handle(self._fh)
        return entries

    def record(self, key: str, result: Any) -> None:
        """Append one completed job (flushed immediately)."""
        if self._fh is None:
            self._fh = open_journal(self.path, fresh=False)
        blob = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        line = json.dumps(
            {"key": key, "result": blob, "crc": record_crc(f"{key}\x00{blob}")},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        self.recorded += 1

    def close(self) -> None:
        if self._fh is not None:
            # Everything acknowledged so far becomes durable before the
            # handle goes away — the journal's moment of truth.
            fsync_handle(self._fh)
            self._fh.close()
            self._fh = None

    def remove(self) -> None:
        """Delete the journal file (explicit cleanup; never automatic)."""
        self.close()
        if self.path.exists():
            self.path.unlink()

    # ------------------------------------------------------------------
    def _load(self) -> tuple[Dict[str, Any], bool]:
        entries: Dict[str, Any] = {}
        try:
            header, records = read_journal(self.path)
        except (OSError, ValueError):
            return entries, False
        if (
            header is None
            or header.get("journal") != self.family.magic
            or header.get("version") != JOURNAL_VERSION
            or header.get("schema") != self.family.schema
        ):
            return entries, False
        for record in records:
            # A kill mid-append leaves at most one torn tail line: skip
            # exactly it (counted) instead of refusing the whole journal.
            result = None
            if not record.problem and isinstance(record.key, str):
                with suppress(Exception):
                    result = pickle.loads(base64.b64decode(record.blob))
            if isinstance(result, self.family.payload):
                entries[record.key] = result
            else:
                self.skipped += 1
        return entries, True
