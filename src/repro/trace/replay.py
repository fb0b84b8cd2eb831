"""Record-once / analyze-many: trace capture and parallel replay.

The paper's workflow captures one Perfetto trace per session and mines
it repeatedly for Tables 4-5 and Figures 13-14.  This module is that
split for the simulator:

* :func:`record_session_trace` runs one session **with a recorder
  attached** and returns both the session result and the finished
  (detached) trace — recording is observation-only, so the result is
  bit-identical to an untraced :func:`~repro.experiments.parallel.run_spec`
  of the same spec;
* :func:`record_traces` fans recording over the job fabric
  (:func:`~repro.experiments.parallel.run_jobs`) and persists each
  trace into a content-addressed :class:`~repro.trace.store.TraceStore`;
* :func:`analyze_view` answers the five §5 queries over any
  :class:`~repro.trace.view.TraceView` — live or replayed — as one
  plain-data :class:`TraceAnalytics`;
* :func:`analyze_store` fans those queries over stored traces with
  ``run_jobs`` (one trace per job, journal-resume supported), **without
  re-simulating anything**.

Each job's payload is exactly its key material — a recording job's
is its :class:`~repro.experiments.parallel.SessionSpec`, a replay job's
its trace key — and the store root rides on the runner
(``partial(record_trace_job, root)``), so jobs=1 and jobs=N produce
byte-identical traces and analytics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..sim.clock import Time
from ..storage import JobFamily, canonical_digest
from ..video.player import SessionResult
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
from .store import TRACE_SCHEMA_VERSION, TraceStore, trace_key
from .view import TraceView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.checkpoint import SweepJournal
    from ..experiments.parallel import (
        FabricReport,
        ResultCache,
        RetryPolicy,
        SessionSpec,
    )

#: Client-thread name prefixes counted as "video client threads"
#: (footnote 11: SurfaceFlinger, MediaCodec, and the browser's own).
#: Canonical home; ``experiments.trace_experiments`` re-exports it.
VIDEO_THREAD_PREFIXES = (
    "MediaCodec", "SurfaceFlinger", "firefox", "chrome", "exoplayer"
)

#: Threads the §5 queries single out by name.
KSWAPD_THREAD = "kswapd0"
LMKD_THREAD = "lmkd"


def is_video_thread(name: str) -> bool:
    return name.startswith(VIDEO_THREAD_PREFIXES)


# ======================================================================
# The five §5 queries as one plain-data result
# ======================================================================

@dataclass
class TraceAnalytics:
    """Every §5 query over one trace, in plain picklable data.

    Keys are state *values* (strings) rather than enum members so the
    object JSON-serialises for digests and CLI output without loss.
    """

    #: Table 4 — seconds per state summed over video client threads.
    video_state_times: Dict[str, float] = field(default_factory=dict)
    #: §5 "top running threads" — (thread, running seconds), descending.
    top_running: List[Tuple[str, float]] = field(default_factory=list)
    #: Figure 13 — kswapd0's fractional state breakdown.
    kswapd_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Table 5 — per-victor preemption stats over video threads.
    preemptions: List[PreemptionStats] = field(default_factory=list)
    #: Figure 14 — lmkd windowed CPU utilization series.
    lmkd_utilization: List[Tuple[float, float]] = field(default_factory=list)
    #: §7 — core migrations per thread.
    migrations: Dict[str, int] = field(default_factory=dict)

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe form with ``repr``-exact floats (digest input)."""
        return {
            "video_state_times": {
                state: repr(value)
                for state, value in sorted(self.video_state_times.items())
            },
            "top_running": [
                [name, repr(value)] for name, value in self.top_running
            ],
            "kswapd_breakdown": {
                state: repr(value)
                for state, value in sorted(self.kswapd_breakdown.items())
            },
            "preemptions": [
                {
                    key: repr(value) if isinstance(value, float) else value
                    for key, value in asdict(stats).items()
                }
                for stats in self.preemptions
            ],
            "lmkd_utilization": [
                [repr(start), repr(value)]
                for start, value in self.lmkd_utilization
            ],
            "migrations": dict(sorted(self.migrations.items())),
        }

    def digest(self) -> str:
        """SHA-256 over the canonical form — bit-identity in one value."""
        return canonical_digest(self.canonical())


def _spec_trace_key(spec: "SessionSpec") -> str:
    from ..experiments.parallel import cache_key

    return trace_key(cache_key(spec))


#: Trace-recording jobs (payload: a spec), keyed by trace address
#: (which folds in the session schema through the spec's cache key).
TRACE_RECORD_JOBS = JobFamily(
    "trace-record", TRACE_SCHEMA_VERSION, SessionResult, _spec_trace_key
)
#: Replay-analytics jobs (payload: a trace key), keyed by
#: ``analytics:<trace key>``.
TRACE_ANALYTICS_JOBS = JobFamily(
    "trace-analytics", TRACE_SCHEMA_VERSION, TraceAnalytics,
    lambda key: f"analytics:{key}",
)


def analyze_view(
    view: TraceView, until: Optional[Time] = None
) -> TraceAnalytics:
    """Run all five §5 queries over one trace (live or replayed)."""
    return TraceAnalytics(
        video_state_times={
            state.value: value
            for state, value in state_times(
                view, is_video_thread, until
            ).items()
        },
        top_running=top_running_threads(view, until, limit=10),
        kswapd_breakdown={
            state.value: value
            for state, value in state_breakdown(
                view, KSWAPD_THREAD, until
            ).items()
        },
        preemptions=preemption_stats(view, is_video_thread, until),
        lmkd_utilization=cpu_utilization_series(view, LMKD_THREAD, until=until),
        migrations=migration_counts(view),
    )


# ======================================================================
# Recording: one traced session, observation-only
# ======================================================================

def record_session_trace(
    spec: "SessionSpec",
) -> Tuple[SessionResult, TraceRecorder]:
    """Run one session job with a trace recorder attached throughout.

    The session is constructed exactly as
    :func:`~repro.experiments.parallel.run_spec` constructs it — same
    factory, same seed path — and the recorder only observes the emit
    bus, so the returned :class:`SessionResult` is bit-identical to an
    untraced run of the same spec (golden-locked).  The recorder covers
    the whole run (pressure ramp included) and comes back detached,
    ready for :meth:`~repro.trace.store.TraceStore.put`.
    """
    from ..core.session import DEVICE_FACTORIES, StreamingSession

    device = DEVICE_FACTORIES[spec.device](seed=spec.seed)
    recorder = TraceRecorder(device.sim)
    session = StreamingSession(
        device=device,
        asset=spec.asset,
        resolution=spec.resolution,
        frame_rate=spec.fps,
        pressure=spec.pressure,
        client=spec.client,
        duration_s=spec.duration_s,
        seed=spec.seed,
        organic_apps=spec.organic_apps,
        abr=spec.abr() if callable(spec.abr) else spec.abr,
    )
    result = session.run()
    recorder.detach()
    return result, recorder


def record_trace_job(root: str, spec: "SessionSpec") -> SessionResult:
    """Record one session's trace into the store at ``root`` (worker
    entry point, bound to its store as ``partial(record_trace_job,
    root)``)."""
    from ..experiments.parallel import cache_key

    result, recorder = record_session_trace(spec)
    session_key = cache_key(spec)
    TraceStore(root).put(
        trace_key(session_key),
        recorder,
        meta={
            "session": session_key,
            "device": spec.device,
            "resolution": spec.resolution,
            "fps": spec.fps,
            "pressure": spec.pressure,
            "client": spec.client or "",
            "duration_s": spec.duration_s,
            "seed": spec.seed,
            "organic_apps": spec.organic_apps,
        },
    )
    return result


class _RecordedTraces:
    """The cache record jobs resolve against: a job is done once its
    trace is in ``store``.

    A done job's result is its session's entry in ``sessions`` (the
    ordinary result cache), or ``NO_RESULT`` when that is gone or
    caching is off; a freshly recorded result lands in ``sessions``.
    """

    def __init__(
        self,
        store: TraceStore,
        sessions: Optional["ResultCache"],
        session_keys: Dict[str, str],
    ) -> None:
        self.store = store
        self.sessions = sessions
        self.session_keys = session_keys

    @property
    def quarantined(self) -> int:
        return 0 if self.sessions is None else self.sessions.quarantined

    def get(self, key: str) -> Any:
        from ..experiments.parallel import NO_RESULT

        if not self.store.contains(key):
            return None
        result = (
            None if self.sessions is None
            else self.sessions.get(self.session_keys[key])
        )
        return NO_RESULT if result is None else result

    def put(self, key: str, result: Any) -> None:
        if self.sessions is not None:
            self.sessions.put(self.session_keys[key], result)


def record_traces(
    specs: Sequence["SessionSpec"],
    store: TraceStore,
    jobs: Optional[int] = None,
    journal: Optional["SweepJournal"] = None,
    policy: Optional["RetryPolicy"] = None,
    report: Optional["FabricReport"] = None,
    cache: Any = None,
) -> List[Optional[SessionResult]]:
    """Record traces for ``specs`` into ``store`` on the job fabric.

    Specs whose trace already exists in the store count as cache hits
    (their slot holds ``None`` unless the session ``cache`` still has
    the result); the rest fan out over ``jobs`` workers with the full
    supervision stack — retries, journal-resume, Ctrl-C drain.  Each
    completed job also lands its :class:`SessionResult` in the cache,
    so recording warms the ordinary result cache.  ``cache`` follows
    the :func:`repro.experiments.parallel.run_sessions` contract:
    ``None`` selects the default on-disk cache, ``False`` disables
    caching, a :class:`ResultCache` passes through.
    """
    from ..experiments.parallel import cache_key, resolve_cache, run_jobs

    recorded = _RecordedTraces(
        store, resolve_cache(cache),
        {trace_key(key): key for key in map(cache_key, specs)},
    )
    return run_jobs(
        specs,
        partial(record_trace_job, str(store.root)),
        family=TRACE_RECORD_JOBS,
        jobs=jobs,
        cache=recorded,
        journal=journal,
        policy=policy,
        report=report,
    )


# ======================================================================
# Replay: parallel analytics over stored traces, no re-simulation
# ======================================================================

def analyze_trace_path(root: str, key: str) -> Any:
    """Verify and load the trace ``key`` from the store at ``root``, then
    run the §5 queries (worker entry point, bound to its store as
    ``partial(analyze_trace_path, root)``).

    A trace that fails verification is quarantined by the store and
    yields ``NO_RESULT``: it is neither retried nor journaled, so a
    later re-record under the same key is analyzed on resume.
    """
    from ..experiments.parallel import NO_RESULT

    trace = TraceStore(root).get(key)
    return NO_RESULT if trace is None else analyze_view(trace)


def analyze_store(
    store: TraceStore,
    keys: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    journal: Optional["SweepJournal"] = None,
    policy: Optional["RetryPolicy"] = None,
    report: Optional["FabricReport"] = None,
) -> Dict[str, TraceAnalytics]:
    """Replay-analyze stored traces in parallel; returns key → analytics.

    One job per trace on the generic fabric (``keys`` defaults to every
    trace in the store, sorted).  A job's journal key is
    ``analytics:<trace key>`` and the queries are pure functions of the
    verified trace, so resumed, serial, and parallel runs are
    byte-identical.  A corrupt trace is quarantined and left out of
    the result.
    """
    from ..experiments.parallel import run_jobs

    trace_keys = list(keys) if keys is not None else store.keys()
    analytics = run_jobs(
        trace_keys,
        partial(analyze_trace_path, str(store.root)),
        family=TRACE_ANALYTICS_JOBS,
        jobs=jobs,
        journal=journal,
        policy=policy,
        report=report,
    )
    return {
        key: result
        for key, result in zip(trace_keys, analytics)
        if result is not None
    }
