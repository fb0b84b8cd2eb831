"""Content-addressed artifact stores: one implementation for every cache.

The result cache, the trace store and the lint cache hold the same
thing — values addressed by a content key, each published with a
checksum sidecar — and differ only in how a value becomes bytes.  A
:class:`Store` is that shared machinery, parameterised by a
:class:`Codec`::

    <root>/<key[:2]>/<key><suffix>            the artifact
    <root>/<key[:2]>/<key><suffix>.env.json   its sidecar
    <root>/quarantine/                        corrupt artifacts, moved

Reads verify the sidecar first (:func:`verified_read`), then decode; a
checksum, schema or decode failure quarantines the artifact and reads
as a miss.  Puts are best effort, because a store only holds values
its caller can recompute: a failed publish is counted, and a read-only
root disables the store with one warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, List, Optional, Union

from .atomic import StorageReport, is_readonly_error
from .envelope import (
    SIDECAR_SUFFIX,
    Quarantine,
    publish_artifact,
    sidecar_path,
    verified_read,
)


@dataclass(frozen=True)
class Codec:
    """How one store's values become bytes and back."""

    #: Streams a value into a staged file handle.
    write: Callable[[IO[bytes], Any], None]
    #: Decodes verified bytes; raising marks the artifact corrupt.
    read: Callable[[bytes], Any]


class Store:
    """Content-addressed artifacts with checksum sidecars and quarantine.

    ``kind`` names the envelope kind and the storage fault point
    (``storage:<kind>``); ``schema`` is stamped into every sidecar, so
    an entry written under another schema is quarantined on read, not
    decoded.
    """

    def __init__(
        self,
        root: Union[str, Path],
        kind: str,
        schema: str,
        suffix: str,
        codec: Codec,
    ) -> None:
        self.root = Path(root)
        self.kind = kind
        self.schema = schema
        self.suffix = suffix
        self.codec = codec
        self.hits = 0
        self.misses = 0
        self.report = StorageReport()
        self._quarantine = Quarantine(
            self.root, label=f"{kind} at {self.root}", report=self.report
        )
        self._disabled = False

    @property
    def quarantined(self) -> int:
        """Corrupt entries moved to quarantine by this store instance."""
        return self.report.quarantined

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def contains(self, key: str) -> bool:
        """True once the artifact and its sidecar are both published."""
        path = self.path_for(key)
        return path.exists() and sidecar_path(path).exists()

    def keys(self) -> List[str]:
        """Every stored key, sorted (quarantine excluded)."""
        return sorted(
            path.name[: -len(self.suffix)]
            for path in self.root.glob(f"??/*{self.suffix}")
            if not path.name.endswith(SIDECAR_SUFFIX)
        )

    def get(self, key: str) -> Optional[Any]:
        """The verified, decoded value under ``key``; ``None`` on a miss."""
        path = self.path_for(key)
        data = verified_read(
            path, quarantine=self._quarantine, expected_schema=self.schema
        )
        if data is not None:
            try:
                value = self.codec.read(data)
            except Exception as exc:
                # Checksum-clean bytes that still fail to decode were
                # written by an incompatible version: quarantine them
                # and let the caller recompute.
                self._quarantine.take(path, repr(exc))
            else:
                self.hits += 1
                return value
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        """Publish ``value`` under ``key`` with its sidecar (best effort).

        A full disk or an injected crash is counted in
        ``report.publish_errors``; a read-only root also disables the
        store, with one warning.  The atomic writer guarantees a failed
        publish left nothing partial behind.
        """
        if self._disabled:
            return
        try:
            publish_artifact(
                self.path_for(key),
                lambda fh: self.codec.write(fh, value),
                kind=self.kind,
                schema=self.schema,
                report=self.report,
            )
        except OSError as exc:
            self.report.publish_errors += 1
            if is_readonly_error(exc):
                self._disabled = True
                self.report.readonly_fallbacks += 1
                warnings.warn(
                    f"{self.kind} directory {self.root} is not writable "
                    f"({exc}); falling back to uncached operation "
                    "(warned once per store)",
                    RuntimeWarning,
                    stacklevel=3,
                )
