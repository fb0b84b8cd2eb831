"""Durable storage fabric: the one way artifacts reach and leave disk.

Every persistence surface in the repo routes through this package:

==================  ==========================================  ==================
surface             module                                      fault point
==================  ==========================================  ==================
result cache        :mod:`repro.experiments.parallel`           ``storage:result-cache``
trace store         :mod:`repro.trace.store`                    ``storage:trace-store``
analysis cache      :mod:`repro.analysis.cache`                 ``storage:analysis-cache``
cohort exports      :mod:`repro.study.export`                   ``storage:study-export``
arena leaderboard   :mod:`repro.arena.leaderboard`              ``storage:leaderboard``
sweep journals      :mod:`repro.experiments.checkpoint`         (append-only: CRC-checked)
==================  ==========================================  ==================

The first three are one :class:`Store` each (a pickle, npz or JSON
:class:`Codec` over the same content-addressed layout); the exports
and leaderboards are loose files.  Every one of them, store or not,
is written by :func:`publish_artifact`: the artifact, then its
checksum sidecar.

:mod:`repro.storage.atomic` is the publish discipline (tmp + fsync +
``os.replace`` + directory fsync), :mod:`repro.storage.envelope` the
checksummed sidecars, quarantine-on-mismatch reads, the job-family
descriptor and :func:`canonical_digest` (the one content-address
hash), :mod:`repro.storage.store` the store, and
:mod:`repro.storage.fsck` the scrubber behind ``repro fsck``.  The
package is stdlib-only: the lint toolchain imports it on a bare
checkout, and numpy-handling surfaces pass writer callables into
:func:`publish_artifact` instead of this layer importing numpy.

See the "Durable storage" section of ``docs/robustness.md``.
"""

from .atomic import (
    READONLY_ERRNOS,
    TMP_SUFFIX,
    StorageReport,
    fsync_dir,
    fsync_handle,
    is_readonly_error,
    open_journal,
    prune_stale_tmp,
    publish_bytes,
    publish_via,
    read_journal,
    record_crc,
)
from .envelope import (
    ENVELOPE_VERSION,
    QUARANTINE_DIR,
    SIDECAR_SUFFIX,
    Envelope,
    IntegrityError,
    JobFamily,
    Quarantine,
    canonical_digest,
    publish_artifact,
    read_sidecar,
    sha256_hex,
    sidecar_path,
    verified_read,
    write_sidecar,
)
from .fsck import FsckReport, StoreFsck, default_roots, scrub, scrub_root
from .store import Codec, Store

__all__ = [
    "Codec",
    "ENVELOPE_VERSION",
    "QUARANTINE_DIR",
    "READONLY_ERRNOS",
    "SIDECAR_SUFFIX",
    "TMP_SUFFIX",
    "Envelope",
    "FsckReport",
    "IntegrityError",
    "JobFamily",
    "Quarantine",
    "StorageReport",
    "Store",
    "StoreFsck",
    "canonical_digest",
    "default_roots",
    "fsync_dir",
    "fsync_handle",
    "is_readonly_error",
    "open_journal",
    "prune_stale_tmp",
    "publish_artifact",
    "publish_bytes",
    "publish_via",
    "read_journal",
    "read_sidecar",
    "record_crc",
    "scrub",
    "scrub_root",
    "sha256_hex",
    "sidecar_path",
    "verified_read",
    "write_sidecar",
]
