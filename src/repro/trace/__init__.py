"""Perfetto-analog tracing: recording, on-disk replay, and §5 queries.

Three layers (see ``docs/tracing.md``):

* :mod:`~repro.trace.recorder` — live capture off the emit bus;
* :mod:`~repro.trace.store` — columnar on-disk traces, content-addressed;
* :mod:`~repro.trace.analysis` / :mod:`~repro.trace.replay` — queries
  that run identically over live and replayed traces.
"""

from .analysis import (
    PreemptionStats,
    cpu_utilization_series,
    migration_counts,
    preemption_stats,
    state_breakdown,
    state_times,
    top_running_threads,
)
from .recorder import TraceRecorder
from .replay import (
    TraceAnalytics,
    analyze_store,
    analyze_view,
    record_session_trace,
    record_traces,
)
from .store import (
    TRACE_SCHEMA_VERSION,
    ReplayTrace,
    TraceFormatError,
    TraceStore,
    load_trace,
    save_trace,
    trace_digest,
    trace_key,
)
from .view import TraceView

__all__ = [
    "PreemptionStats",
    "ReplayTrace",
    "TRACE_SCHEMA_VERSION",
    "TraceAnalytics",
    "TraceFormatError",
    "TraceRecorder",
    "TraceStore",
    "TraceView",
    "analyze_store",
    "analyze_view",
    "cpu_utilization_series",
    "load_trace",
    "migration_counts",
    "preemption_stats",
    "record_session_trace",
    "record_traces",
    "save_trace",
    "state_breakdown",
    "state_times",
    "top_running_threads",
    "trace_digest",
    "trace_key",
]
