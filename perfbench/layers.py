"""Per-layer measurement, taken from outside the program.

Nothing here edits or subclasses the simulator.  Layers are measured in
three ways, all from the benchmark's side of the call boundary:

* a deterministic profiler (:mod:`cProfile`) wrapped around one pass
  gives per-package self time and the exact call count and cumulative
  time of named public entry points;
* :class:`SessionLedger` wraps ``StreamingSession.run`` and, after each
  session returns, reads the public counters of the device it ran on
  (scheduler, vmstat, simulated clock);
* the fabric's ``FabricReport`` and the stores' ``StorageReport`` are
  read after the pass, and the bytes a pass left on disk are summed.

Layer names are the ``repro`` package names.  Time spent inside C
functions is charged to the package that called them when the function
is part of the language core (``len``, list and dict methods, ``heapq``,
``bisect``, ``math``, the random generator); numpy, zlib, pickle,
hashlib, file I/O and every other library land in ``other``.  Blocking
waits (locks, ``select``, ``sleep``) are the fabric supervisor waiting
on pool workers and are kept apart as ``experiments.wait_s``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.session import StreamingSession
from repro.sim.clock import to_seconds
from repro.study import fleet

#: The fleet's job runner, taken before :func:`profile_pool_workers`
#: swaps it, so a forked or spawned worker can still reach it.
RUN_COHORT_JOB = fleet.run_cohort_job

#: Roots of C modules and types whose time belongs to their caller.
_CORE_C = frozenset({
    "builtins", "list", "dict", "set", "frozenset", "tuple", "str",
    "bytes", "bytearray", "int", "float", "bool", "object", "type",
    "collections", "_collections", "_heapq", "_bisect", "math",
    "itertools", "_operator", "operator", "_functools", "functools",
    "_random", "enum", "range", "slice", "method", "function",
})

#: C functions that block: the fabric's supervisor waiting on workers.
_WAIT_C = re.compile(
    r"acquire' of '_thread|select\.|poll' of 'select|time\.sleep|"
    r"posix\.waitpid|posix\.read>"
)

_C_METHOD = re.compile(r"<method '[^']+' of '([^']+)' objects>")
_C_BUILTIN = re.compile(r"<built-in method ([\w.]+)\.\w+>")


def c_module(name: str) -> str:
    """Root module or type of a C function's profiler label."""
    match = _C_METHOD.match(name) or _C_BUILTIN.match(name)
    if match is None:
        # e.g. "<built-in method __new__ of type object at 0x...>"
        return "builtins"
    return match.group(1).split(".")[0]


class Attribution:
    """Maps profiler entries to layers for one source tree."""

    def __init__(self, repro_dir: Path, bench_dir: Path) -> None:
        self.repro_dir = str(repro_dir) + os.sep
        self.bench_dir = str(bench_dir) + os.sep

    def package(self, filename: str) -> str:
        if filename.startswith(self.repro_dir):
            head = filename[len(self.repro_dir):].split(os.sep)[0]
            return head[:-3] if head.endswith(".py") else head
        if filename.startswith(self.bench_dir):
            return "bench"
        return "other"

    def relpath(self, filename: str) -> Optional[str]:
        """``sim/engine.py`` for a file of the program, else None."""
        if filename.startswith(self.repro_dir):
            return filename[len(self.repro_dir):].replace(os.sep, "/")
        return None


@dataclass
class Profile:
    """Self time per package and per-entry-point figures of one pass."""

    self_s: Dict[str, float]
    #: (relpath, function name) -> (calls, cumulative seconds)
    entries: Dict[Tuple[str, str], Tuple[int, float]]
    #: C function label -> calls
    c_calls: Dict[str, int]
    #: (relpath, function name) -> {caller (relpath, name): cumulative s}
    callers_ct: Dict[Tuple[str, str], Dict[Tuple[str, str], float]]

    def calls(self, relpath: str, name: str) -> int:
        return self.entries.get((relpath, name), (0, 0.0))[0]

    def cum_s(self, relpath: str, name: str) -> float:
        return self.entries.get((relpath, name), (0, 0.0))[1]

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())


def summarize(stats: pstats.Stats, attribution: Attribution) -> Profile:
    """Fold raw profiler stats into per-package and per-entry figures."""
    self_s: Dict[str, float] = defaultdict(float)
    entries: Dict[Tuple[str, str], Tuple[int, float]] = {}
    c_calls: Dict[str, int] = defaultdict(int)
    callers_ct: Dict[Tuple[str, str], Dict[Tuple[str, str], float]] = {}

    def key_of(func: Tuple[str, int, str]) -> Optional[Tuple[str, str]]:
        rel = attribution.relpath(func[0])
        return None if rel is None else (rel, func[2])

    for func, (_cc, nc, tt, ct, callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, _line, name = func
        if filename == "~":
            c_calls[name] += nc
            if "_lsprof.Profiler" in name:
                continue
            if _WAIT_C.search(name):
                self_s["experiments.wait"] += tt
            elif c_module(name) in _CORE_C:
                for caller, edge in callers.items():
                    owner = (
                        "other" if caller[0] == "~"
                        else attribution.package(caller[0])
                    )
                    self_s[owner] += edge[2]
            else:
                self_s["other"] += tt
            continue
        self_s[attribution.package(filename)] += tt
        key = key_of(func)
        if key is None:
            continue
        calls, cum = entries.get(key, (0, 0.0))
        entries[key] = (calls + nc, cum + ct)
        per_caller = callers_ct.setdefault(key, {})
        for caller, edge in callers.items():
            caller_key = key_of(caller) or ("", caller[2])
            per_caller[caller_key] = per_caller.get(caller_key, 0.0) + edge[3]
    return Profile(dict(self_s), entries, dict(c_calls), callers_ct)


def load_stats(profiler: cProfile.Profile, extra: Iterable[Path]) -> pstats.Stats:
    """The pass's own profile plus any worker profiles it left behind."""
    stats = pstats.Stats(profiler)
    for path in sorted(extra):
        stats.add(str(path))
    return stats


# ----------------------------------------------------------------------
# Session counters
# ----------------------------------------------------------------------

@dataclass
class SessionCounters:
    """Public counters of one finished session's device."""

    simulated_s: float
    frames_processed: int
    frames_rendered: int
    elided_slices: int
    preemptions: int
    pgscan: int
    pgsteal: int
    kswapd_wakeups: int
    allocstall: int
    lmkd_kills: int
    oom_kills: int


class SessionLedger:
    """Records :class:`SessionCounters` for every session that runs.

    Installed by wrapping ``StreamingSession.run`` on the class, so every
    path that builds a session (``run_spec``, the trace recorder) is
    covered.  The wrapper reads counters after the session returns and
    keeps no reference to the session.
    """

    def __init__(self) -> None:
        self.sessions: List[SessionCounters] = []
        self._orig = StreamingSession.run

    def install(self) -> None:
        orig = self._orig
        ledger = self

        def run(session, *args, **kwargs):  # type: ignore[no-untyped-def]
            result = orig(session, *args, **kwargs)
            device = session.device
            vm = device.memory.vmstat
            ledger.sessions.append(SessionCounters(
                simulated_s=to_seconds(device.sim.now),
                frames_processed=result.frames_processed,
                frames_rendered=result.frames_rendered,
                elided_slices=device.scheduler.elided_slices,
                preemptions=device.scheduler.preemption_count,
                pgscan=vm.pgscan,
                pgsteal=vm.pgsteal,
                kswapd_wakeups=vm.kswapd_wakeups,
                allocstall=vm.allocstall,
                lmkd_kills=vm.lmkd_kills,
                oom_kills=vm.oom_kills,
            ))
            return result

        StreamingSession.run = run  # type: ignore[method-assign]

    def uninstall(self) -> None:
        StreamingSession.run = self._orig  # type: ignore[method-assign]

    def take(self) -> List[SessionCounters]:
        """Counters recorded since the last call."""
        taken, self.sessions = self.sessions, []
        return taken


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------

#: Directory pool workers dump their per-job profiles into.  Set in the
#: parent before the pool starts, so the workers inherit it.
WORKER_PROFILE_DIR_ENV = "PERFBENCH_WORKER_PROFILES"

def profiled_cohort_job(job):  # type: ignore[no-untyped-def]
    """``run_cohort_job`` under a profiler of the worker's own.

    Stands in for :func:`repro.study.fleet.run_cohort_job` during the
    traced fleet pass.  It is importable by module path, so the pool can
    pickle it, and it writes one profile file per job, which the parent
    merges after the pass.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return RUN_COHORT_JOB(job)
    finally:
        profiler.disable()
        profiler.dump_stats(str(
            Path(os.environ[WORKER_PROFILE_DIR_ENV])
            / f"{os.getpid()}-{job.cohort_index}.prof"
        ))


@contextmanager
def profile_pool_workers(directory: Path) -> Iterator[None]:
    """Route the fleet's cohort jobs through :func:`profiled_cohort_job`."""
    directory.mkdir(parents=True, exist_ok=True)
    os.environ[WORKER_PROFILE_DIR_ENV] = str(directory)
    fleet.run_cohort_job = profiled_cohort_job
    try:
        yield
    finally:
        fleet.run_cohort_job = RUN_COHORT_JOB
        del os.environ[WORKER_PROFILE_DIR_ENV]
