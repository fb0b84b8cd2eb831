"""`repro fsck`: scrub classification, repair, reporting, exit codes."""

from __future__ import annotations

import json

from repro import cli
from repro.storage import (
    FsckReport,
    publish_bytes,
    record_crc,
    scrub,
    sidecar_path,
    write_sidecar,
)

PAYLOAD = b"a cohort of one million simulated handsets"


def publish_enveloped(root, name="entry.bin"):
    path = root / name
    digest = publish_bytes(path, PAYLOAD)
    write_sidecar(
        path, kind="test", schema="v1/test", digest=digest, size=len(PAYLOAD)
    )
    return path


def problems(report):
    return sorted(
        finding.problem for store in report.stores for finding in store.findings
    )


def test_clean_store_scrubs_clean(tmp_path):
    publish_enveloped(tmp_path)
    report = scrub([tmp_path])
    assert report.clean and report.exit_code == 0
    [store] = report.stores
    assert (store.artifacts, store.verified) == (1, 1)


def test_missing_roots_are_skipped_silently(tmp_path):
    report = scrub([tmp_path / "never-created"])
    assert report.clean
    assert report.stores == []


def test_orphan_tmp_is_an_integrity_finding_until_repaired(tmp_path):
    publish_enveloped(tmp_path)
    orphan = tmp_path / "entry.binXXXX.tmp"
    orphan.write_bytes(b"dead writer debris")
    report = scrub([tmp_path])
    assert not report.clean and report.exit_code == 1
    assert problems(report) == ["orphan-tmp"]

    repaired = scrub([tmp_path], repair=True)
    assert repaired.clean  # repaired findings no longer count
    assert not orphan.exists()
    assert scrub([tmp_path]).clean


def test_dangling_sidecar_is_flagged_and_repairable(tmp_path):
    path = publish_enveloped(tmp_path)
    path.unlink()
    report = scrub([tmp_path])
    assert problems(report) == ["dangling-sidecar"]
    scrub([tmp_path], repair=True)
    assert not sidecar_path(path).exists()


def test_checksum_mismatch_is_detected(tmp_path):
    path = publish_enveloped(tmp_path)
    path.write_bytes(PAYLOAD[:5])
    report = scrub([tmp_path])
    assert problems(report) == ["checksum-mismatch"]
    assert not report.clean


def test_artifact_without_sidecar_is_pruned_by_repair(tmp_path):
    """An artifact whose sidecar never landed is an incomplete publish:
    an integrity finding until ``--repair`` prunes it."""
    path = publish_enveloped(tmp_path)
    sidecar_path(path).unlink()
    report = scrub([tmp_path])
    assert problems(report) == ["missing-sidecar"]
    assert not report.clean

    repaired = scrub([tmp_path], repair=True)
    assert repaired.clean
    assert not path.exists()
    assert not sidecar_path(path).exists()  # nothing was derived
    assert scrub([tmp_path]).clean


def test_journal_record_without_crc_is_a_finding(tmp_path):
    journal = tmp_path / "sweep.journal"
    journal.write_text(
        json.dumps({"journal": "repro-sweep", "version": 2, "schema": 1})
        + "\n" + json.dumps({"key": "k1", "result": "QUJD"}) + "\n"
    )
    report = scrub([tmp_path])
    assert problems(report) == ["torn-journal-record"]
    assert report.stores[0].journal_records == 0


def test_quarantined_files_are_counted_not_scrubbed(tmp_path):
    publish_enveloped(tmp_path)
    debris = tmp_path / "quarantine" / "old-entry.bin"
    debris.parent.mkdir()
    debris.write_bytes(b"whatever it was when it died")
    report = scrub([tmp_path])
    assert report.clean
    assert report.stores[0].quarantined == 1


def test_journal_scrub_flags_exactly_the_torn_records(tmp_path):
    journal = tmp_path / "sweep.journal"
    good = {"key": "k1", "result": "QUJD", "crc": record_crc("k1\x00QUJD")}
    torn = {"key": "k2", "result": "QUJD", "crc": "00000000"}
    journal.write_text(
        json.dumps({"journal": "repro-sweep", "version": 2, "schema": 1})
        + "\n" + json.dumps(good) + "\n" + json.dumps(torn) + "\n"
        + '{"key": "k3", "result": "QUJ'  # kill mid-append
    )
    report = scrub([tmp_path])
    assert problems(report) == ["torn-journal-record", "torn-journal-record"]
    assert report.stores[0].journal_records == 1


def test_fsck_payload_roundtrips_through_json(tmp_path):
    publish_enveloped(tmp_path)
    (tmp_path / "orphan.tmp").write_bytes(b"x")
    report = scrub([tmp_path])
    payload = json.loads(json.dumps(report.to_payload(), sort_keys=True))
    restored = FsckReport.from_payload(payload)
    assert restored.clean == report.clean
    assert [s.to_payload() for s in restored.stores] == [
        s.to_payload() for s in report.stores
    ]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_fsck_cli_json_clean_store(tmp_path, capsys):
    publish_enveloped(tmp_path)
    assert cli.main(["fsck", "--root", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["integrity_findings"] == 0
    assert FsckReport.from_payload(payload).clean


def test_fsck_cli_exit_1_on_integrity_findings(tmp_path, capsys):
    publish_enveloped(tmp_path)
    (tmp_path / "entry.binXXXX.tmp").write_bytes(b"debris")
    assert cli.main(["fsck", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "orphan-tmp" in out
    assert "1 integrity finding" in out


def test_fsck_cli_repair_then_clean(tmp_path, capsys):
    publish_enveloped(tmp_path)
    (tmp_path / "entry.binXXXX.tmp").write_bytes(b"debris")
    assert cli.main(["fsck", "--root", str(tmp_path), "--repair"]) == 0
    capsys.readouterr()
    assert cli.main(["fsck", "--root", str(tmp_path)]) == 0


def test_fsck_cli_exit_2_on_missing_root(tmp_path, capsys):
    assert cli.main(["fsck", "--root", str(tmp_path / "nope")]) == 2
    assert "no such store root" in capsys.readouterr().err


def test_record_trace_sweep_journal_is_scrubbed_as_a_journal(
    tmp_path, monkeypatch, capsys
):
    """``repro sweep --record-trace`` keeps its default journal under
    the family-prefixed ``.journal`` name, so fsck CRC-checks its
    records and ``--repair`` never writes a sidecar beside it."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    assert cli.main([
        "sweep", "--devices", "nexus5", "--resolutions", "240p",
        "--fps", "30", "--pressures", "normal", "--duration", "2",
        "--reps", "1", "--record-trace", str(tmp_path / "traces"), "--json",
    ]) == 0
    capsys.readouterr()
    [journal] = (cache / "journals").iterdir()
    assert journal.name.startswith("trace-record-")
    assert journal.suffix == ".journal"

    report = scrub([cache])
    assert report.clean
    [store] = report.stores
    assert store.journals == 1
    assert store.journal_records == 1

    assert scrub([cache], repair=True).clean
    assert not sidecar_path(journal).exists()
