"""Provenance of a ``BENCH_*.json`` snapshot: the commit it measured."""

import json
import re

from benchmarks.perf.harness import ROOT, source_commit, write_bench


def test_bench_records_the_commit_or_null(tmp_path):
    payload = json.loads(write_bench(tmp_path / "bench.json", {}).read_text())
    commit = payload["commit"]
    assert commit == source_commit(ROOT)
    assert commit is None or re.fullmatch(r"[0-9a-f]{40}", commit)


def test_source_commit_is_null_outside_a_checkout(tmp_path):
    assert source_commit(tmp_path) is None
