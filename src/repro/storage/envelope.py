"""Checksummed artifact envelopes and graceful-degradation reads.

An **envelope** is a tiny JSON sidecar published next to an artifact
(``<artifact>.env.json``) recording what the artifact claimed to be at
publish time::

    {"envelope": 1, "kind": "result-cache", "schema": "v2/ab12...",
     "sha256": "<hex digest of the artifact bytes>", "bytes": 1234}

The sidecar is itself published atomically *after* the artifact, so the
possible on-disk states after any crash are: neither file, artifact
without sidecar (a publish that died between the two: read as a miss,
republished by the next write), or both — never a sidecar describing
bytes that are not there.

:func:`verified_read` is the read half of the discipline: hash the
artifact, compare against the sidecar, and on any mismatch hand the
artifact to a :class:`Quarantine` — moved, never deleted, one warning
per store, counted — and report a miss so the caller recomputes.  A
checksum or schema problem is **never** raised to the caller; the only
exceptions out of this module are programming errors.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, Optional, Union

from .atomic import StorageReport, publish_bytes, publish_via

#: Version of the sidecar format itself (not of the artifact's schema).
ENVELOPE_VERSION = 1

#: Suffix appended to the artifact path to name its sidecar.
SIDECAR_SUFFIX = ".env.json"

#: Directory name (under a store root) where corrupt artifacts go.
QUARANTINE_DIR = "quarantine"


class IntegrityError(RuntimeError):
    """An artifact's bytes do not match its envelope.

    Internal to the storage layer: surfaces catch it (or use
    :func:`verified_read`, which converts it into quarantine + miss);
    it must never escape to simulation code.
    """


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(obj: Any) -> str:
    """SHA-256 of ``obj``'s canonical JSON (sorted keys, no spaces).

    The one content-address function: job keys, trace keys, analytics
    and leaderboard digests all hash their material through it.
    """
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class JobFamily:
    """One kind of fabric job: its name, schema, result type and key.

    ``key(job)`` is the job's content address, the one thing the fabric
    derives everything else from: journal and cache keys, the fault
    point ``job:<key>``, the retry jitter, and the default journal
    name.  ``None`` keeps a job out of the journal and the cache.
    Journals stamp ``magic`` and ``schema`` into their header and result
    caches stamp ``schema`` and the result type into each envelope, so
    a stale or foreign journal or entry is discarded, never replayed.
    """

    name: str
    schema: int
    payload: type
    key: Callable[[Any], Optional[str]]

    @property
    def magic(self) -> str:
        return f"repro-{self.name}"


def sidecar_path(artifact: Union[str, Path]) -> Path:
    artifact = Path(artifact)
    return artifact.with_name(artifact.name + SIDECAR_SUFFIX)


@dataclass(frozen=True)
class Envelope:
    """The parsed contents of one artifact sidecar."""

    kind: str
    schema: str
    sha256: str
    size: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "envelope": ENVELOPE_VERSION,
            "kind": self.kind,
            "schema": self.schema,
            "sha256": self.sha256,
            "bytes": self.size,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Envelope":
        if payload.get("envelope") != ENVELOPE_VERSION:
            raise IntegrityError(
                f"unsupported envelope version {payload.get('envelope')!r}"
            )
        try:
            return cls(
                kind=str(payload["kind"]),
                schema=str(payload["schema"]),
                sha256=str(payload["sha256"]),
                size=int(payload["bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"malformed envelope: {exc}") from exc


def write_sidecar(
    artifact: Union[str, Path],
    *,
    kind: str,
    schema: str,
    digest: str,
    size: int,
) -> Path:
    """Publish the envelope sidecar for an already-published artifact.

    Sidecars never take storage faults themselves (``surface=None``):
    the chaos scenarios corrupt artifacts and rely on the sidecar to
    catch it, so the sidecar is the trusted witness.
    """
    path = sidecar_path(artifact)
    envelope = Envelope(kind=kind, schema=schema, sha256=digest, size=size)
    publish_bytes(
        path,
        json.dumps(envelope.to_payload(), sort_keys=True).encode("utf-8"),
    )
    return path


def publish_artifact(
    path: Union[str, Path],
    fill: Callable[[IO[bytes]], None],
    *,
    kind: str,
    schema: str,
    report: Optional[StorageReport] = None,
) -> str:
    """Publish an artifact and then its sidecar; returns its SHA-256.

    The one way an enveloped artifact reaches disk: ``fill`` streams
    the payload into a staged handle (:func:`publish_via`), ``kind`` is
    both the envelope kind and the fault surface (``storage:<kind>``),
    and ``schema`` is the tag :func:`verified_read` checks.  A failed
    publish raises and leaves no sidecar behind.
    """
    path = Path(path)
    digest = publish_via(path, fill, surface=kind, report=report)
    write_sidecar(
        path, kind=kind, schema=schema, digest=digest,
        size=path.stat().st_size,
    )
    return digest


def read_sidecar(artifact: Union[str, Path]) -> Optional[Envelope]:
    """Parse an artifact's sidecar; ``None`` when absent.

    A sidecar that exists but cannot be parsed raises
    :class:`IntegrityError` — a present-but-garbled envelope is itself
    corruption, and the pair gets quarantined together.
    """
    path = sidecar_path(artifact)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise IntegrityError(f"unreadable sidecar {path}: {exc}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"garbled sidecar {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError(f"sidecar {path} is not a JSON object")
    return Envelope.from_payload(payload)


class Quarantine:
    """Where corrupt artifacts go to be inspected, not deleted.

    One instance per store.  The first quarantined artifact emits a
    single :class:`RuntimeWarning` naming the directory; subsequent
    ones are silent (a damaged store should not drown the run in
    warnings), but every move increments the shared
    :class:`~repro.storage.atomic.StorageReport`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        label: str,
        report: Optional[StorageReport] = None,
    ) -> None:
        self.root = Path(root)
        self.label = label
        self.report = report if report is not None else StorageReport()
        self._warned = False

    @property
    def directory(self) -> Path:
        return self.root / QUARANTINE_DIR

    @property
    def count(self) -> int:
        return self.report.quarantined

    def take(self, artifact: Path, reason: str) -> None:
        """Move ``artifact`` (and its sidecar, if any) into quarantine."""
        self.directory.mkdir(parents=True, exist_ok=True)
        moved = False
        for victim in (artifact, sidecar_path(artifact)):
            if not victim.exists():
                continue
            dest = self.directory / victim.name
            with suppress(OSError):
                os.replace(victim, dest)
                moved = True
        if not moved:
            return
        self.report.quarantined += 1
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"{self.label}: quarantined corrupt artifact "
                f"{artifact.name} ({reason}); moved to {self.directory}",
                RuntimeWarning,
                stacklevel=3,
            )


def verified_read(
    artifact: Union[str, Path],
    *,
    quarantine: Quarantine,
    expected_schema: Optional[str] = None,
) -> Optional[bytes]:
    """Read an artifact's bytes iff they match their envelope.

    Returns the verified payload, or ``None`` for every degraded case:
    artifact missing, checksum mismatch (quarantined), garbled sidecar
    (quarantined), schema drift (quarantined — an old-format artifact
    is a miss, not an error).  An artifact with **no** sidecar is a
    publish that died before its sidecar landed (or one still in
    flight): a plain miss, left in place for the next publish to
    replace.
    """
    artifact = Path(artifact)
    report = quarantine.report
    try:
        data = artifact.read_bytes()
    except FileNotFoundError:
        return None
    except OSError:
        return None
    try:
        envelope = read_sidecar(artifact)
    except IntegrityError as exc:
        quarantine.take(artifact, str(exc))
        return None
    if envelope is None:
        return None
    if envelope.size != len(data) or envelope.sha256 != sha256_hex(data):
        quarantine.take(
            artifact,
            f"checksum mismatch (have {len(data)} bytes, "
            f"envelope says {envelope.size})",
        )
        return None
    if expected_schema is not None and envelope.schema != expected_schema:
        quarantine.take(
            artifact,
            f"schema drift ({envelope.schema!r} != {expected_schema!r})",
        )
        return None
    report.verified += 1
    return data
