"""Trace record/replay macrobench: replay analytics vs re-simulation.

The point of the record/replay split is that every §5 question after the
first no longer pays for a discrete-event simulation.  This benchmark
makes that claim a number, on the same canonical Nexus 5 pair as the
end-to-end macrobench:

* ``trace_record_pair_s`` — the one-time cost: run both sessions traced
  and persist their columnar traces (paid once per spec, ever);
* ``resimulate_analyze_pair_s`` — the old way, per analysis pass:
  re-simulate each session with a recorder attached, then run all five
  §5 queries on the live trace;
* ``replay_analyze_pair_s`` — the new way, per analysis pass: load each
  trace from the store and run the same five queries (bit-identical
  answers, enforced by the trace goldens);
* ``replay_speedup_x`` — resimulate / replay.  The regression gate
  holds this above 5× (see ``check_regression.py``).

Honest accounting: the speedup is per *analysis pass*.  A workflow that
analyzes each session exactly once gains nothing (recording costs
slightly more than a bare run); the win compounds with every re-query,
which is precisely the paper's capture-once / mine-repeatedly workflow.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List

from repro.experiments.parallel import SessionSpec, cache_key
from repro.trace.replay import analyze_view, record_session_trace
from repro.trace.store import TraceStore, trace_key

from .bench_end_to_end import PAIR_KWARGS, PAIR_PRESSURES
from .harness import time_once


def pair_specs() -> List[SessionSpec]:
    """The canonical pair as session specs (shared with bench_end_to_end)."""
    return [
        SessionSpec(
            device=PAIR_KWARGS["device"],
            resolution=PAIR_KWARGS["resolution"],
            fps=PAIR_KWARGS["frame_rate"],
            pressure=pressure,
            client=None,
            duration_s=PAIR_KWARGS["duration_s"],
            seed=PAIR_KWARGS["seed"],
        )
        for pressure in PAIR_PRESSURES
    ]


def run(quick: bool = False) -> Dict[str, float]:
    repeats = 2 if quick else 5
    specs = pair_specs()
    keys = [trace_key(cache_key(spec)) for spec in specs]
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)

        def record_pair() -> None:
            for spec, key in zip(specs, keys):
                _result, recorder = record_session_trace(spec)
                store.put(key, recorder)

        def resimulate_analyze_pair() -> None:
            for spec in specs:
                _result, recorder = record_session_trace(spec)
                analyze_view(recorder)

        def replay_analyze_pair() -> None:
            for key in keys:
                trace = store.get(key)
                assert trace is not None
                analyze_view(trace)

        record_pair()  # warm-up for all three paths; fills the store
        record_s = min(time_once(record_pair) for _ in range(repeats))
        resim_s = min(
            time_once(resimulate_analyze_pair) for _ in range(repeats)
        )
        replay_s = min(time_once(replay_analyze_pair) for _ in range(repeats))
    return {
        "trace_record_pair_s": round(record_s, 3),
        "resimulate_analyze_pair_s": round(resim_s, 3),
        "replay_analyze_pair_s": round(replay_s, 3),
        "replay_speedup_x": round(resim_s / replay_s, 2),
    }


if __name__ == "__main__":
    for key, value in run().items():
        print(f"{key} {value}")
