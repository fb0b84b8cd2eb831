"""The three content-addressed stores, as inputs to the store contract
tests in this package: each store, how to build it under a root, a
value to put, and how to compare a value read back."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.analysis.cache import AnalysisCache
from repro.experiments.parallel import ResultCache
from repro.sched import ThreadState
from repro.storage import JobFamily, Store, canonical_digest
from repro.trace.store import ReplayTrace, TraceStore, trace_digest

#: Plain-dict payloads: the cache under test, not the session schema.
DICTS = JobFamily("dicts", 1, dict, canonical_digest)

#: Distinct keys in distinct fan-out directories.
KEYS = ["a" * 64, "b" * 64, "c" * 64]


@dataclass(frozen=True)
class StoreCase:
    make: Callable[[Any], Store]
    value: Any
    same: Callable[[Any, Any], bool]


def _trace() -> ReplayTrace:
    return ReplayTrace(
        start_time=0,
        end_time=100,
        transitions={"worker": [(10, ThreadState.RUNNING)]},
        initial_states={"worker": ThreadState.SLEEPING},
        preemptions=[(20, "worker", "kswapd0", 0)],
        rotations=[],
        migrations={"worker": 1},
        counters={"mem": [(30, 1.5)]},
        meta={},
    )


STORES: Dict[str, StoreCase] = {
    "result-cache": StoreCase(
        lambda root: ResultCache(root, DICTS),
        {"seed": 1},
        lambda a, b: a == b,
    ),
    "trace-store": StoreCase(
        TraceStore,
        _trace(),
        lambda a, b: trace_digest(a) == trace_digest(b),
    ),
    "analysis-cache": StoreCase(
        AnalysisCache,
        {"rel": "repro/x.py", "findings": []},
        lambda a, b: a == b,
    ),
}
