"""Columnar on-disk trace store: record once, analyze many times.

The paper's own method captures Perfetto traces once and mines them
repeatedly for Tables 4-5 and Figures 13-14; this module gives the
simulator the same split.  A :class:`~repro.trace.recorder.TraceRecorder`
serialises to one compact ``.trace.npz`` file — struct-of-arrays column
groups for transitions, preemptions, rotations, migrations, and counter
tracks, written atomically like the cohort exporter — and
:class:`ReplayTrace` loads it back as a
:class:`~repro.trace.view.TraceView`, so every query in
:mod:`repro.trace.analysis` runs over the recorded file **without
re-simulating**, bit-identical to the live recorder.

Traces are content-addressed by ``(session spec digest, trace schema
version)`` via :func:`trace_key`, and a :class:`TraceStore` is the same
:class:`~repro.storage.Store` as the result cache (two-level fan-out,
atomic writes, verified reads, corrupt entries quarantined — moved,
never deleted); the golden-digest suite locks the format with
:func:`trace_digest`.

Format (schema-versioned; a mismatch on load is an error, not a guess):

======================  ================================================
``format``              ``[TRACE_SCHEMA_VERSION]``
``span``                ``[start_time, end_time]`` in ticks
``names``               global string table (threads + preemption actors)
``thread_idx/initial``  threads with transitions, sorted by name
``tr_offsets/time/state``  flattened per-thread transition runs
``pre_*``, ``rot_*``    (time, victim, victor, core) event rows
``mig_thread/count``    core-migration totals per thread
``counter_names``, ``ctr_*``  flattened counter-track samples
``meta_json``           free-form session metadata (spec digest, ...)
======================  ================================================
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..sched.states import ThreadState
from ..sim.clock import Time
from ..storage import (
    Codec,
    StorageReport,
    Store,
    canonical_digest,
    publish_artifact,
)
from .view import Preemption, TraceView, Transition

#: Bump when the column layout or the event semantics change: old trace
#: files then stop matching their content address and are re-recorded.
TRACE_SCHEMA_VERSION = 1

#: Environment override for the default trace-store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: File suffix of stored traces.
TRACE_SUFFIX = ".trace.npz"

#: Canonical state encoding: index into the enum's declaration order.
#: Frozen by TRACE_SCHEMA_VERSION — reordering ThreadState is a schema
#: change.
_STATES: Tuple[ThreadState, ...] = tuple(ThreadState)
_STATE_INDEX: Dict[ThreadState, int] = {
    state: index for index, state in enumerate(_STATES)
}


class TraceFormatError(ValueError):
    """A trace file is truncated, corrupt, or from another schema."""


def trace_key(session_key: str) -> str:
    """Content address of a trace: session spec digest + trace schema.

    ``session_key`` is the session's own content address (e.g.
    :func:`repro.experiments.parallel.cache_key` of its spec), so the
    same machinery that addresses results addresses their traces — and
    a schema bump retires every stored trace at once.
    """
    return canonical_digest(
        {"trace_schema": TRACE_SCHEMA_VERSION, "session": session_key}
    )


def default_trace_dir() -> Path:
    """``$REPRO_TRACE_DIR``, else ``<result cache root>/traces``."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env)
    from ..experiments.parallel import default_cache_dir

    return default_cache_dir() / "traces"


# ======================================================================
# Serialisation
# ======================================================================

def _event_columns(
    events: List[Preemption], table: Dict[str, int], prefix: str
) -> Dict[str, np.ndarray]:
    return {
        f"{prefix}_time": np.array([e[0] for e in events], dtype=np.int64),
        f"{prefix}_victim": np.array(
            [table[e[1]] for e in events], dtype=np.int32
        ),
        f"{prefix}_victor": np.array(
            [table[e[2]] for e in events], dtype=np.int32
        ),
        f"{prefix}_core": np.array([e[3] for e in events], dtype=np.int32),
    }


def _columns_from_view(
    view: TraceView, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, np.ndarray]:
    """Flatten a trace into its canonical column groups."""
    names = set(view.transitions)
    names.update(view.initial_states)
    names.update(view.migrations)
    for events in (view.preemptions, view.rotations):
        for _time, victim, victor, _core in events:
            names.add(victim)
            names.add(victor)
    name_list = sorted(names)
    table = {name: index for index, name in enumerate(name_list)}

    threads = sorted(view.transitions)
    tr_time: List[Time] = []
    tr_state: List[int] = []
    tr_offsets = [0]
    for thread in threads:
        for time, state in view.transitions[thread]:
            tr_time.append(time)
            tr_state.append(_STATE_INDEX[state])
        tr_offsets.append(len(tr_time))
    initial = [
        _STATE_INDEX[
            view.initial_states.get(thread, ThreadState.SLEEPING)
        ]
        for thread in threads
    ]

    migrating = sorted(view.migrations)
    counter_names = sorted(view.counters)
    ctr_time: List[Time] = []
    ctr_value: List[float] = []
    ctr_offsets = [0]
    for counter in counter_names:
        for time, value in view.counters[counter]:
            ctr_time.append(time)
            ctr_value.append(value)
        ctr_offsets.append(len(ctr_time))

    columns: Dict[str, np.ndarray] = {
        "format": np.array([TRACE_SCHEMA_VERSION], dtype=np.int64),
        "span": np.array(
            [view.start_time, view.end_time], dtype=np.int64
        ),
        "names": np.array(name_list, dtype=np.str_),
        "thread_idx": np.array(
            [table[t] for t in threads], dtype=np.int32
        ),
        "thread_initial": np.array(initial, dtype=np.int8),
        "tr_offsets": np.array(tr_offsets, dtype=np.int64),
        "tr_time": np.array(tr_time, dtype=np.int64),
        "tr_state": np.array(tr_state, dtype=np.int8),
        "mig_thread": np.array(
            [table[t] for t in migrating], dtype=np.int32
        ),
        "mig_count": np.array(
            [view.migrations[t] for t in migrating], dtype=np.int64
        ),
        "counter_names": np.array(counter_names, dtype=np.str_),
        "ctr_offsets": np.array(ctr_offsets, dtype=np.int64),
        "ctr_time": np.array(ctr_time, dtype=np.int64),
        "ctr_value": np.array(ctr_value, dtype=np.float64),
        "meta_json": np.array(
            [json.dumps(meta or {}, sort_keys=True)], dtype=np.str_
        ),
    }
    columns.update(_event_columns(view.preemptions, table, "pre"))
    columns.update(_event_columns(view.rotations, table, "rot"))
    return columns


#: Envelope kind (and storage fault point) of stored traces.
TRACE_KIND = "trace-store"

#: Envelope schema tag stored in every trace sidecar.
TRACE_ENVELOPE_SCHEMA = f"v{TRACE_SCHEMA_VERSION}/trace"


def _write_columns(fh: IO[bytes], columns: Dict[str, np.ndarray]) -> None:
    np.savez_compressed(fh, **columns)


def save_trace(
    view: TraceView,
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
    *,
    report: Optional[StorageReport] = None,
) -> Path:
    """Write one trace as compressed npz column groups (atomic).

    Publishes through :func:`~repro.storage.publish_artifact` (tmp +
    fsync + ``os.replace`` + directory fsync, then a checksum sidecar),
    so a killed recorder never leaves a half-written trace for replay
    and a torn or bit-rotted trace is quarantined on read, never
    analyzed.  A failed publish raises.
    """
    path = Path(path)
    columns = _columns_from_view(view, meta)
    publish_artifact(
        path,
        lambda fh: _write_columns(fh, columns),
        kind=TRACE_KIND,
        schema=TRACE_ENVELOPE_SCHEMA,
        report=report,
    )
    return path


class ReplayTrace(TraceView):
    """A recorded trace loaded from disk, analysis-ready.

    Satisfies the full :class:`~repro.trace.view.TraceView` contract
    with native Python containers, so every query in
    :mod:`repro.trace.analysis` is bit-identical to running it against
    the live recorder the file was saved from.
    """

    def __init__(
        self,
        start_time: Time,
        end_time: Time,
        transitions: Dict[str, List[Transition]],
        initial_states: Dict[str, ThreadState],
        preemptions: List[Preemption],
        rotations: List[Preemption],
        migrations: Dict[str, int],
        counters: Dict[str, List[Tuple[Time, float]]],
        meta: Dict[str, Any],
    ) -> None:
        self.start_time = start_time
        self._end_time = end_time
        self.transitions = transitions
        self.initial_states = initial_states
        self.preemptions = preemptions
        self.rotations = rotations
        self.migrations = migrations
        self.counters = counters
        #: Free-form metadata recorded at save time (spec digest, ...).
        self.meta = meta
        self._interval_cache: Dict[
            Tuple[str, Optional[Time]],
            List[Tuple[Time, Time, ThreadState]],
        ] = {}

    @property
    def end_time(self) -> Time:
        return self._end_time

    def intervals(
        self, thread_name: str, until: Optional[Time] = None
    ) -> List[Tuple[Time, Time, ThreadState]]:
        """Memoized :meth:`TraceView.intervals`.

        A replayed trace is immutable, so the interval tiling for a
        given ``(thread, until)`` never changes — caching it turns the
        per-event rebuilds in ``preemption_stats`` from O(events x
        transitions) into one pass per thread.  Callers treat interval
        lists as read-only (the analysis queries only iterate them).
        """
        key = (thread_name, until)
        cached = self._interval_cache.get(key)
        if cached is None:
            cached = super().intervals(thread_name, until)
            self._interval_cache[key] = cached
        return cached


def _events_from_columns(
    data: Any, names: List[str], prefix: str
) -> List[Preemption]:
    times = data[f"{prefix}_time"].tolist()
    victims = data[f"{prefix}_victim"].tolist()
    victors = data[f"{prefix}_victor"].tolist()
    cores = data[f"{prefix}_core"].tolist()
    return [
        (time, names[victim], names[victor], core)
        for time, victim, victor, core in zip(times, victims, victors, cores)
    ]


def load_trace(path: Union[str, Path]) -> ReplayTrace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`TraceFormatError` for truncated, corrupt, or
    wrong-schema files.  Reads of a :class:`TraceStore` go through its
    checksum-verified :meth:`TraceStore.get` instead.
    """
    path = Path(path)
    return _load_trace_source(path, label=str(path))


def load_trace_bytes(data: bytes, *, label: str = "<bytes>") -> ReplayTrace:
    """Decode an in-memory trace payload (already checksum-verified)."""
    return _load_trace_source(io.BytesIO(data), label=label)


def _load_trace_source(
    source: Union[Path, IO[bytes]], *, label: str
) -> ReplayTrace:
    try:
        with np.load(source) as data:
            fmt = int(data["format"][0]) if "format" in data else -1
            if fmt != TRACE_SCHEMA_VERSION:
                raise TraceFormatError(
                    f"{label}: trace schema {fmt}, "
                    f"expected {TRACE_SCHEMA_VERSION}"
                )
            return _replay_from_columns(data)
    except TraceFormatError:
        raise
    except Exception as exc:
        raise TraceFormatError(f"{label}: unreadable trace ({exc!r})") from exc


def _replay_from_columns(data: Any) -> ReplayTrace:
    names: List[str] = [str(name) for name in data["names"]]
    span = data["span"].tolist()
    thread_idx = data["thread_idx"].tolist()
    thread_initial = data["thread_initial"].tolist()
    tr_offsets = data["tr_offsets"].tolist()
    tr_time = data["tr_time"].tolist()
    tr_state = data["tr_state"].tolist()
    transitions: Dict[str, List[Transition]] = {}
    initial_states: Dict[str, ThreadState] = {}
    for position, index in enumerate(thread_idx):
        thread = names[index]
        start, stop = tr_offsets[position], tr_offsets[position + 1]
        transitions[thread] = [
            (tr_time[i], _STATES[tr_state[i]]) for i in range(start, stop)
        ]
        initial_states[thread] = _STATES[thread_initial[position]]
    migrations = {
        names[index]: count
        for index, count in zip(
            data["mig_thread"].tolist(), data["mig_count"].tolist()
        )
    }
    counter_names = [str(name) for name in data["counter_names"]]
    ctr_offsets = data["ctr_offsets"].tolist()
    ctr_time = data["ctr_time"].tolist()
    ctr_value = data["ctr_value"].tolist()
    counters: Dict[str, List[Tuple[Time, float]]] = {}
    for position, counter in enumerate(counter_names):
        start, stop = ctr_offsets[position], ctr_offsets[position + 1]
        counters[counter] = [
            (ctr_time[i], ctr_value[i]) for i in range(start, stop)
        ]
    meta_raw = json.loads(str(data["meta_json"][0]))
    meta: Dict[str, Any] = meta_raw if isinstance(meta_raw, dict) else {}
    return ReplayTrace(
        start_time=span[0],
        end_time=span[1],
        transitions=transitions,
        initial_states=initial_states,
        preemptions=_events_from_columns(data, names, "pre"),
        rotations=_events_from_columns(data, names, "rot"),
        migrations=migrations,
        counters=counters,
        meta=meta,
    )


# ======================================================================
# Content digest (golden machinery)
# ======================================================================

def trace_digest(view: TraceView) -> Dict[str, object]:
    """Reduce a trace to its golden regression digest.

    The SHA-256 covers every recorded event in canonical form (state
    indices, ``repr``-exact counter floats), so it is identical for a
    live recorder and its round-tripped :class:`ReplayTrace` — drift
    means either the simulation or the file format changed.
    """
    canonical = {
        "schema": TRACE_SCHEMA_VERSION,
        "span": [view.start_time, view.end_time],
        "initial": {
            name: _STATE_INDEX[state]
            for name, state in sorted(view.initial_states.items())
        },
        "transitions": {
            name: [[t, _STATE_INDEX[s]] for t, s in view.transitions[name]]
            for name in sorted(view.transitions)
        },
        "preemptions": [list(e) for e in view.preemptions],
        "rotations": [list(e) for e in view.rotations],
        "migrations": dict(sorted(view.migrations.items())),
        "counters": {
            name: [[t, repr(v)] for t, v in view.counters[name]]
            for name in sorted(view.counters)
        },
    }
    transitions = sum(len(v) for v in view.transitions.values())
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "threads": len(view.transitions),
        "transitions": transitions,
        "preemptions": len(view.preemptions),
        "rotations": len(view.rotations),
        "migrations": sum(view.migrations.values()),
        "counter_samples": sum(len(v) for v in view.counters.values()),
        "span_ticks": view.end_time - view.start_time,
        "content_sha256": canonical_digest(canonical),
    }


# ======================================================================
# Content-addressed store
# ======================================================================

class TraceStore(Store):
    """Content-addressed trace files: a :class:`~repro.storage.Store`
    with the npz codec, at ``<root>/<key[:2]>/<key>.trace.npz``.

    A corrupt trace is quarantined and reads as missing, so the
    affected session is simply re-recorded.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(
            root,
            kind=TRACE_KIND,
            schema=TRACE_ENVELOPE_SCHEMA,
            suffix=TRACE_SUFFIX,
            codec=Codec(write=_write_columns, read=load_trace_bytes),
        )

    def put(
        self,
        key: str,
        value: TraceView,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store one trace through :func:`save_trace`.

        Unlike a cache put, a failed publish raises: a trace is its
        record job's output, so the job fails and the fabric retries it.
        """
        save_trace(value, self.path_for(key), meta, report=self.report)

    def iter_traces(self) -> Iterator[Tuple[str, ReplayTrace]]:
        """Stream (key, trace) pairs; corrupt entries are quarantined
        and skipped."""
        for key in self.keys():
            trace = self.get(key)
            if trace is not None:
                yield key, trace
