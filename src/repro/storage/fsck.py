"""Integrity scrubbing for every on-disk store (``repro fsck``).

Walks one or more store roots and classifies every file it finds:

* **artifact with sidecar** — hash the bytes, compare to the envelope;
  a mismatch is an integrity finding (the store will quarantine it on
  next read, fsck just surfaces it early);
* **artifact without sidecar** — a publish that died between the
  artifact and its sidecar; integrity finding (reads already treat it
  as a miss), pruned by ``--repair``;
* **orphaned ``*.tmp``** — a writer died between staging and publish;
  integrity finding, pruned by ``--repair``;
* **dangling sidecar** — an envelope whose artifact is gone; integrity
  finding, pruned by ``--repair``;
* **journal** (``*.journal``) — header parsed, every record's CRC
  checked; a torn, garbled or CRC-less record is an integrity finding
  (resume skips it, fsck names it);
* **quarantine contents** — informational only: quarantine is exactly
  where corrupt artifacts are supposed to be.

Exit-code contract (used by CI and future service health checks):
``0`` every store clean, ``1`` integrity findings present, ``2`` usage
error (e.g. a root that is not a directory).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from .atomic import TMP_SUFFIX, read_journal
from .envelope import (
    QUARANTINE_DIR,
    SIDECAR_SUFFIX,
    IntegrityError,
    read_sidecar,
    sha256_hex,
    sidecar_path,
)

#: 2: the ``legacy`` count is gone; sidecar-less artifacts are findings.
FSCK_SCHEMA_VERSION = 2

#: File suffixes fsck recognises as journals (line-JSON with header).
JOURNAL_SUFFIX = ".journal"


@dataclass
class Finding:
    """One problem (or repair) fsck observed at a specific path."""

    path: str
    problem: str
    detail: str = ""
    repaired: bool = False

    def to_payload(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "problem": self.problem,
            "detail": self.detail,
            "repaired": self.repaired,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Finding":
        return cls(
            path=str(payload["path"]),
            problem=str(payload["problem"]),
            detail=str(payload.get("detail", "")),
            repaired=bool(payload.get("repaired", False)),
        )


#: Finding problems that count as integrity findings (gate CI); the
#: rest are informational.
INTEGRITY_PROBLEMS = frozenset(
    {"checksum-mismatch", "orphan-tmp", "dangling-sidecar",
     "missing-sidecar", "garbled-sidecar", "torn-journal-record",
     "garbled-journal-header"}
)


@dataclass
class StoreFsck:
    """Scrub results for one store root."""

    root: str
    artifacts: int = 0
    verified: int = 0
    journals: int = 0
    journal_records: int = 0
    quarantined: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def integrity_findings(self) -> List[Finding]:
        return [
            f for f in self.findings
            if f.problem in INTEGRITY_PROBLEMS and not f.repaired
        ]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "artifacts": self.artifacts,
            "verified": self.verified,
            "journals": self.journals,
            "journal_records": self.journal_records,
            "quarantined": self.quarantined,
            "findings": [f.to_payload() for f in self.findings],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "StoreFsck":
        return cls(
            root=str(payload["root"]),
            artifacts=int(payload["artifacts"]),
            verified=int(payload["verified"]),
            journals=int(payload["journals"]),
            journal_records=int(payload["journal_records"]),
            quarantined=int(payload["quarantined"]),
            findings=[
                Finding.from_payload(entry) for entry in payload["findings"]
            ],
        )


@dataclass
class FsckReport:
    """The full scrub: one :class:`StoreFsck` per root."""

    stores: List[StoreFsck] = field(default_factory=list)
    repair: bool = False

    @property
    def integrity_findings(self) -> List[Finding]:
        return [f for s in self.stores for f in s.integrity_findings]

    @property
    def clean(self) -> bool:
        return not self.integrity_findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_payload(self) -> Dict[str, Any]:
        return {
            "fsck_schema": FSCK_SCHEMA_VERSION,
            "repair": self.repair,
            "clean": self.clean,
            "integrity_findings": len(self.integrity_findings),
            "stores": [s.to_payload() for s in self.stores],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FsckReport":
        if payload.get("fsck_schema") != FSCK_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fsck schema {payload.get('fsck_schema')!r}"
            )
        return cls(
            stores=[
                StoreFsck.from_payload(entry) for entry in payload["stores"]
            ],
            repair=bool(payload.get("repair", False)),
        )

    def summary(self) -> str:
        lines = []
        for store in self.stores:
            bad = len(store.integrity_findings)
            status = "clean" if not bad else f"{bad} integrity finding(s)"
            lines.append(
                f"{store.root}: {status} — {store.artifacts} artifact(s), "
                f"{store.verified} verified, "
                f"{store.journals} journal(s), "
                f"{store.quarantined} quarantined"
            )
            for finding in store.findings:
                mark = "repaired" if finding.repaired else finding.problem
                detail = f" ({finding.detail})" if finding.detail else ""
                lines.append(f"  [{mark}] {finding.path}{detail}")
        total = len(self.integrity_findings)
        lines.append(
            "fsck: clean" if self.clean
            else f"fsck: {total} integrity finding(s)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The scrub itself
# ----------------------------------------------------------------------

def _scrub_journal(path: Path, store: StoreFsck) -> None:
    store.journals += 1
    try:
        _, records = read_journal(path)
    except (OSError, ValueError) as exc:
        store.findings.append(
            Finding(str(path), "garbled-journal-header", str(exc))
        )
        return
    for record in records:
        if record.problem:
            store.findings.append(
                Finding(str(path), "torn-journal-record",
                        f"line {record.lineno}: {record.problem}")
            )
        else:
            store.journal_records += 1


def _debris(path: Path, problem: str, detail: str, repair: bool) -> Finding:
    """A finding for a file that is only crash debris; ``repair`` prunes it."""
    repaired = False
    if repair:
        with suppress(OSError):
            path.unlink()
            repaired = True
    return Finding(str(path), problem, detail, repaired=repaired)


def _scrub_artifact(path: Path, store: StoreFsck, repair: bool) -> None:
    store.artifacts += 1
    try:
        envelope = read_sidecar(path)
    except IntegrityError as exc:
        store.findings.append(
            Finding(str(sidecar_path(path)), "garbled-sidecar", str(exc))
        )
        return
    if envelope is None:
        store.findings.append(_debris(
            path, "missing-sidecar",
            "publish died before its sidecar landed", repair,
        ))
        return
    try:
        data = path.read_bytes()
    except OSError as exc:
        store.findings.append(
            Finding(str(path), "checksum-mismatch", f"unreadable: {exc}")
        )
        return
    if envelope.size != len(data) or envelope.sha256 != sha256_hex(data):
        store.findings.append(
            Finding(
                str(path), "checksum-mismatch",
                f"have {len(data)} bytes, envelope says {envelope.size}",
            )
        )
        return
    store.verified += 1


def scrub_root(
    root: Union[str, Path], *, repair: bool = False
) -> StoreFsck:
    """Scrub one store root (recursively); see module docstring."""
    root = Path(root)
    store = StoreFsck(root=str(root))
    quarantine = root / QUARANTINE_DIR
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if quarantine in path.parents:
            store.quarantined += 1
            continue
        name = path.name
        if name.endswith(TMP_SUFFIX):
            store.findings.append(_debris(
                path, "orphan-tmp", "staged file with no publisher", repair
            ))
            continue
        if name.endswith(SIDECAR_SUFFIX):
            artifact = path.with_name(name[: -len(SIDECAR_SUFFIX)])
            if not artifact.exists():
                store.findings.append(_debris(
                    path, "dangling-sidecar",
                    f"artifact {artifact.name} is gone", repair,
                ))
            continue
        if name.endswith(JOURNAL_SUFFIX):
            _scrub_journal(path, store)
            continue
        _scrub_artifact(path, store, repair)
    return store


def scrub(
    roots: Iterable[Union[str, Path]], *, repair: bool = False
) -> FsckReport:
    """Scrub every root that exists; missing roots are skipped silently
    (an empty cache is a healthy cache)."""
    report = FsckReport(repair=repair)
    for root in roots:
        root = Path(root)
        if not root.exists():
            continue
        report.stores.append(scrub_root(root, repair=repair))
    return report


def default_roots() -> List[Path]:
    """The stores a bare ``repro fsck`` scrubs: result cache + traces.

    Imported lazily so the storage package itself stays importable
    without the experiment stack.
    """
    from ..experiments.parallel import default_cache_dir
    from ..trace.store import default_trace_dir

    roots: List[Path] = [default_cache_dir()]
    trace_root = default_trace_dir()
    if trace_root not in roots:
        roots.append(trace_root)
    return roots
