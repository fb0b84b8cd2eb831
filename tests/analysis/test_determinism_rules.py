"""Each determinism rule fires on its bad fixture and not on the good one."""

from pathlib import Path

import pytest

from repro.analysis.cli import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(rel_path, rule):
    result = run_lint(
        [FIXTURES / rel_path], root=FIXTURES, use_baseline=False,
        only_rules=[rule],
    )
    return result.findings


@pytest.mark.parametrize("rel_path,rule,expected", [
    ("repro/kernel/bad_wallclock.py", "REP101", 5),
    ("repro/kernel/bad_random.py", "REP102", 3),
    ("repro/kernel/bad_hash.py", "REP103", 1),
    ("repro/kernel/bad_id.py", "REP105", 1),
    ("repro/core/bad_float_eq.py", "REP106", 2),
    ("repro/kernel/bad_poll_loop.py", "REP108", 2),
    ("repro/experiments/bad_swallow.py", "REP109", 4),
    ("repro/experiments/bad_adhoc_policy.py", "REP110", 3),
    ("repro/experiments/bad_direct_write.py", "REP111", 6),
])
def test_bad_fixture_finding_counts(rel_path, rule, expected):
    found = findings_for(rel_path, rule)
    assert len(found) == expected
    assert all(f.rule == rule for f in found)


def test_set_iteration_flags_every_shape():
    found = findings_for("repro/kernel/bad_set_iter.py", "REP104")
    contexts = {f.message.split(" iterates")[0] for f in found}
    # for-over-bound-name, for-over-literal, list(set(...)), str.join(set)
    assert len(found) == 4
    assert "for loop" in contexts
    assert "list()" in contexts
    assert "str.join()" in contexts


def test_wallclock_resolves_import_aliases():
    found = findings_for("repro/kernel/bad_wallclock.py", "REP101")
    messages = " ".join(f.message for f in found)
    assert "time.perf_counter" in messages  # via `from time import ... as pc`
    assert "datetime.datetime.now" in messages


def test_wallclock_catalog_is_shared_with_taint():
    """REP101 and the REP120 taint source read one catalog: every clock
    read is banned in the core, and one that feeds a seed is reported
    by both."""
    banned = " ".join(
        f.message for f in findings_for("repro/kernel/bad_wallclock.py", "REP101")
    )
    assert "time.clock_gettime" in banned
    assert "time.localtime" in banned
    found = findings_for("repro/kernel/bad_wallclock.py", "REP120")
    assert len(found) == 1
    assert "derive_seed()" in found[0].message


def test_poll_loop_rule_spares_backoff_retries():
    """REP108 keys on period-like delay names: a retry loop whose delay
    is a backoff is a legitimate self-reschedule and must not fire."""
    found = findings_for("repro/kernel/bad_poll_loop.py", "REP108")
    assert {f.line for f in found} == {13, 21}  # _poll and sample only


def test_swallow_rule_is_scoped_to_fabric_layers():
    """The same swallow patterns outside experiments/ and faults/ are
    other packages' business — REP109 must not fire there."""
    found = findings_for("repro/kernel/swallow_out_of_scope.py", "REP109")
    assert found == []


def test_swallow_rule_spares_handlers_that_record():
    found = findings_for("repro/experiments/bad_swallow.py", "REP109")
    flagged_lines = {f.line for f in found}
    messages = " ".join(f.message for f in found)
    assert "bare `except:`" in messages
    assert "contextlib.suppress" in messages
    # The counting and re-raising handlers at the bottom are clean.
    assert max(flagged_lines) < 35


def test_adhoc_policy_rule_is_scoped_to_experiments():
    """Direct controller construction is fine everywhere else (core
    unit tests, the arena registry itself, the CLI) — REP110 polices
    only experiments/."""
    found = findings_for("repro/core/adhoc_policy_out_of_scope.py", "REP110")
    assert found == []


def test_adhoc_policy_rule_spares_registry_and_factories():
    """build_policy() calls, factory *references*, and noqa-exempted
    lines in the bad fixture stay clean; only the three ad-hoc
    constructions fire."""
    found = findings_for("repro/experiments/bad_adhoc_policy.py", "REP110")
    assert {f.line for f in found} == {9, 10, 11}
    messages = " ".join(f.message for f in found)
    assert "build_policy" in messages


def test_direct_write_rule_is_scoped_to_persistence_layers():
    """kernel/ (and anything else outside the persistence scopes) may
    write scratch files directly — REP111 must not fire there."""
    found = findings_for("repro/kernel/direct_write_out_of_scope.py", "REP111")
    assert found == []


def test_direct_write_rule_spares_reads_and_storage_publishes():
    """Read-mode opens, non-literal modes, and noqa-exempted lines in
    the bad fixture stay clean; the storage-routed good fixture is
    entirely clean."""
    found = findings_for("repro/experiments/bad_direct_write.py", "REP111")
    messages = " ".join(f.message for f in found)
    assert "publish_bytes" in messages  # write_bytes/write_text variant
    assert "publish_via" in messages    # write-mode open variant
    # Everything below the last numbered violation is a clean case.
    assert max(f.line for f in found) < 34
    assert findings_for(
        "repro/experiments/good_storage_publish.py", "REP111"
    ) == []


def test_good_fixture_is_clean():
    result = run_lint(
        [FIXTURES / "repro/kernel/good_deterministic.py"],
        root=FIXTURES, use_baseline=False,
    )
    assert result.ok


def test_typing_rules_fire_in_strict_scope():
    untyped = findings_for("repro/sim/bad_untyped.py", "REP301")
    assert len(untyped) == 2  # module def + method missing a param
    ignores = findings_for("repro/sim/bad_ignore.py", "REP302")
    assert len(ignores) == 1  # the scoped ignore on the later line is fine
