"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs ``run.py`` from the checkout root and checks its output
contract against ``BENCHMARK.json``: every workload prints every
end-to-end metric (``--trace 0``) and every per-layer metric
(``--trace 1``) with its unit, and a corrupted expected output makes
the run fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(
    workload: str,
    trace: int,
    env: Optional[Dict[str, str]] = None,
    cwd: Path = ROOT,
    script: Path = BENCH_DIR / "run.py",
) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess[str]) -> Dict[str, Any]:
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    text = done.stdout.splitlines()[:-1]
    for name, unit in expected.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in text
        ), name
    assert any(line.split()[:1] == ["fail_ratio"] for line in text)


def test_corrupted_golden_fails_the_run(tmp_path: Path) -> None:
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "tests" / "golden", golden)
    digest_file = golden / "nexus5.json"
    digest = json.loads(digest_file.read_text())
    digest["frames_rendered"] += 1
    digest_file.write_text(json.dumps(digest))
    env = dict(os.environ, REPRO_GOLDEN_DIR=str(golden))
    done = bench("playback", 0, env=env)
    assert done.returncode != 0
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert "golden nexus5" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = bench("playback", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
