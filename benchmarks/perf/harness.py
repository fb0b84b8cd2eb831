"""Timing helpers and the ``BENCH_<date>.json`` writer.

Each microbench is a callable ``fn(n)`` performing ``n`` operations;
:func:`ops_per_sec` reports the best of several repeats, which filters
out scheduler noise on shared machines.  :func:`write_bench` records a
machine-readable snapshot so later PRs can diff engine throughput and
sweep wall-clock against this one.
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

#: The checkout this harness belongs to.
ROOT = Path(__file__).resolve().parents[2]


def ops_per_sec(fn: Callable[[int], Any], n: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` throughput of ``fn(n)`` in operations/second."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(n)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return n / best


def time_once(fn: Callable[[], Any]) -> float:
    """Wall-clock seconds for a single call to ``fn``."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_path(out_dir: Path | str = ".") -> Path:
    """Default output path: ``BENCH_<ISO date>.json`` in ``out_dir``.

    Never clobbers an existing snapshot: a second run on the same day
    (or a PR landing on its baseline's date) gets a ``.2``, ``.3``, ...
    suffix, so the previous numbers stay comparable.
    """
    today = datetime.date.today().isoformat()
    path = Path(out_dir) / f"BENCH_{today}.json"
    counter = 2
    while path.exists():
        path = Path(out_dir) / f"BENCH_{today}.{counter}.json"
        counter += 1
    return path


def source_commit(root: Path = ROOT) -> Optional[str]:
    """``git rev-parse HEAD`` of ``root``, or None outside a checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def write_bench(path: Path | str, results: Dict[str, Any]) -> Path:
    """Write a benchmark snapshot with enough provenance to compare."""
    path = Path(path)
    payload = {
        "commit": source_commit(),
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "results": results,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
