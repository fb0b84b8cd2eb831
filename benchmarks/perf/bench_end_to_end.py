"""End-to-end session benchmark: the canonical Nexus 5 pair.

The macrobenchmark every PR's fast-forward work is judged against: two
full 10-second 720p30 streaming sessions (moderate and critical
pressure, seed 7) run back to back.  The pair covers both regimes the
simulator spends its time in — a mostly-idle pipeline with periodic
duty/render work, and a reclaim-heavy thrash loop — so a speedup here
reflects real session wall-clock, not a microbench artifact.

Run directly (``python -m benchmarks.perf.bench_end_to_end``) or
through ``python -m benchmarks.perf.run``, which records the number to
a ``BENCH_<date>.json``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.session import StreamingSession

from .harness import time_once

#: The canonical cell pair (device, resolution, fps, duration, seed).
PAIR_PRESSURES = ("moderate", "critical")
PAIR_KWARGS = dict(
    device="nexus5", resolution="720p", frame_rate=30,
    duration_s=10.0, seed=7,
)


def session_pair() -> None:
    """Run the canonical moderate+critical session pair."""
    for pressure in PAIR_PRESSURES:
        StreamingSession(pressure=pressure, **PAIR_KWARGS).run()


def elided_events_per_pair() -> Dict[str, int]:
    """Interior quantum boundaries retired analytically (no event
    scheduled or fired) per session of the canonical pair."""
    counts = {}
    for pressure in PAIR_PRESSURES:
        session = StreamingSession(pressure=pressure, **PAIR_KWARGS)
        session.run()
        counts[pressure] = session.device.scheduler.elided_slices
    return counts


def run(quick: bool = False) -> Dict[str, float]:
    """Best-of-N wall-clock seconds for the canonical session pair."""
    repeats = 2 if quick else 5
    session_pair()  # warm-up: imports, specialization, allocator
    best = min(time_once(session_pair) for _ in range(repeats))
    return {"end_to_end_session_pair_s": round(best, 3)}


if __name__ == "__main__":
    print(f"end_to_end_session_pair_s {run()['end_to_end_session_pair_s']:.3f}")
    for pressure, count in elided_events_per_pair().items():
        print(f"elided_slices[{pressure}] {count}")
