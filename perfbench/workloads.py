"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs, sets up what its timed
operation needs, runs one *pass* of that operation, and checks the
pass's outputs.  Every pass is closed-loop and runs in this process
(``fleet`` fans out to a pool of two workers).  Stores and journals go
under the run's scratch directory inside the checkout, on the real
disk, so fsync costs are real.  README.md gives the reason for each
workload.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.checkpoint import SweepJournal
from repro.experiments.parallel import (
    FabricReport,
    ResultCache,
    SessionSpec,
    cache_key,
    run_sessions,
)
from repro.study.cohort import FleetConfig, n_cohorts
from repro.study.fleet import fleet_journal, run_fleet
from repro.trace import replay
from repro.trace.replay import analyze_store, analyze_view, record_traces
from repro.trace.store import TraceStore, trace_key

from layers import SessionCounters, SessionLedger

#: Canonical resolution of each paper device (§4).
CANONICAL = (("nokia1", "480p"), ("nexus5", "720p"), ("nexus6p", "1080p"))
FRAME_RATES = (30, 60)
#: §4/§5 crash-and-thrash cells: (device, resolution, pressure).
PRESSURE_CELLS = (
    ("nokia1", "480p", "moderate"),
    ("nokia1", "480p", "low"),
    ("nokia1", "480p", "critical"),
    ("nexus5", "720p", "critical"),
    ("nexus6p", "1080p", "critical"),
)

#: Workload sizes.  ``tiny`` is for the smoke test only.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "playback": {"reps": 1, "duration_s": 40.0},
        "pressure": {"reps": 5, "duration_s": 3.0},
        "mine": {"reps": 2, "duration_s": 3.0, "shards": 4},
        "fleet": {"devices": 20_480, "jobs": 2},
    },
    "tiny": {
        "playback": {"reps": 1, "duration_s": 2.0},
        "pressure": {"reps": 1, "duration_s": 1.0},
        "mine": {"reps": 1, "duration_s": 1.0, "shards": 1},
        "fleet": {"devices": 2_048, "jobs": 2},
    },
}


@dataclass
class PassOutput:
    """What one pass produced, for checks and metrics."""

    directory: Path
    results: List[Any]
    report: FabricReport
    #: Simulated seconds the pass covered (sessions, traces or devices).
    simulated_s: float = 0.0
    #: Stores whose ``StorageReport`` the pass filled.
    stores: List[Any] = field(default_factory=list)
    #: Counters of the sessions the pass simulated.
    sessions: List[SessionCounters] = field(default_factory=list)
    #: Root of the trace store the pass wrote or read, if any.
    traces: Optional[Path] = None


@dataclass
class Check:
    """Outcome of checking one pass (or the goldens)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def job(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _session_seeds(name: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"perfbench:{name}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _replay_check(
    specs: Sequence[SessionSpec], results: Sequence[Any], cache_dir: Path
) -> Check:
    """Cold results must equal their cache-replayed copies."""
    check = Check()
    report = FabricReport()
    replayed = run_sessions(
        specs, jobs=1, cache=ResultCache(cache_dir), report=report
    )
    for spec, cold, warm in zip(specs, results, replayed):
        check.job(
            cold is not None and cold == warm,
            f"{spec.device}/{spec.pressure}/{spec.fps} seed {spec.seed}: "
            "cold result differs from its cache replay",
        )
    check.job(
        report.computed == 0,
        f"{report.computed} replay jobs missed the cache",
    )
    return check


class Workload:
    """One named workload: inputs from a seed, set-up, pass, checks."""

    name = ""
    #: What ``items_per_s`` counts for this workload.
    item = ""
    #: Set-up rounds that make up one whole set-up (``mine`` captures
    #: its corpus in shards; every other set-up is one round).
    setup_shards = 1
    #: Canonical goldens checked once per run.
    goldens: Tuple[str, ...] = ()

    def __init__(
        self, seed: int, size: str, scratch: Path, ledger: SessionLedger
    ) -> None:
        self.seed = seed
        self.params = SIZES[size][self.name]
        self.scratch = scratch
        self.ledger = ledger
        self.specs: List[SessionSpec] = []
        self._passes = 0

    def setup(self, round_index: int) -> float:
        """Run one set-up round; returns its host seconds."""
        start = time.perf_counter()
        self._setup(round_index)
        return time.perf_counter() - start

    def _setup(self, round_index: int) -> None:
        pass

    def pass_dir(self) -> Path:
        self._passes += 1
        return self.scratch / f"pass-{self._passes}"

    @property
    def items(self) -> int:
        return len(self.specs)

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput) -> Check:
        raise NotImplementedError


class Playback(Workload):
    """§4 clean playback: few long sessions through ``run_sessions``."""

    name = "playback"
    item = "sessions"
    goldens = ("session",)

    def _setup(self, round_index: int) -> None:
        cells = [(d, r, fps) for d, r in CANONICAL for fps in FRAME_RATES]
        reps = self.params["reps"]
        seeds = _session_seeds(self.name, self.seed, len(cells) * reps)
        self.specs = [
            SessionSpec(
                device=device, resolution=res, fps=fps, pressure="normal",
                client=None, duration_s=self.params["duration_s"],
                seed=seeds[i * reps + rep],
            )
            for i, (device, res, fps) in enumerate(cells)
            for rep in range(reps)
        ]

    def run_pass(self) -> PassOutput:
        directory = self.pass_dir()
        cache = ResultCache(directory / "cache")
        report = FabricReport()
        self.ledger.take()
        results = run_sessions(
            self.specs, jobs=1, cache=cache,
            journal=SweepJournal(directory / "sweep.journal", resume=False),
            report=report,
        )
        sessions = self.ledger.take()
        return PassOutput(
            directory, results, report,
            simulated_s=sum(s.simulated_s for s in sessions),
            stores=[cache], sessions=sessions,
        )

    def check(self, out: PassOutput) -> Check:
        return _replay_check(self.specs, out.results, out.directory / "cache")


def _pressure_specs(
    name: str, seed: int, reps: int, duration_s: float
) -> List[SessionSpec]:
    cells = [
        (device, res, pressure, fps)
        for device, res, pressure in PRESSURE_CELLS
        for fps in FRAME_RATES
    ]
    seeds = _session_seeds(name, seed, len(cells) * reps)
    return [
        SessionSpec(
            device=device, resolution=res, fps=fps, pressure=pressure,
            client=None, duration_s=duration_s, seed=seeds[i * reps + rep],
        )
        for rep in range(reps)
        for i, (device, res, pressure, fps) in enumerate(cells)
    ]


class Pressure(Workload):
    """§4/§5 crash-and-thrash capture through ``record_traces``."""

    name = "pressure"
    item = "sessions"
    goldens = ("session", "trace")

    def _setup(self, round_index: int) -> None:
        self.specs = _pressure_specs(
            self.name, self.seed, self.params["reps"],
            self.params["duration_s"],
        )

    def run_pass(self) -> PassOutput:
        directory = self.pass_dir()
        store = TraceStore(directory / "traces")
        cache = ResultCache(directory / "cache")
        report = FabricReport()
        self.ledger.take()
        results = record_traces(
            self.specs, store, jobs=1,
            journal=SweepJournal(directory / "record.journal", resume=False),
            report=report, cache=cache,
        )
        sessions = self.ledger.take()
        return PassOutput(
            directory, results, report,
            simulated_s=sum(s.simulated_s for s in sessions),
            stores=[cache, store], sessions=sessions, traces=store.root,
        )

    def check(self, out: PassOutput) -> Check:
        check = _replay_check(self.specs, out.results, out.directory / "cache")
        store = TraceStore(out.directory / "traces")
        for spec in self.specs:
            check.job(
                store.contains(trace_key(cache_key(spec))),
                f"no stored trace for seed {spec.seed}",
            )
        return check


class Mine(Workload):
    """§5 mining: analyse a stored corpus, then warm cache reads."""

    name = "mine"
    item = "traces"
    goldens = ("trace",)

    def __init__(
        self, seed: int, size: str, scratch: Path, ledger: SessionLedger
    ) -> None:
        super().__init__(seed, size, scratch, ledger)
        self.setup_shards = self.params["shards"]
        self.cold: Dict[str, Any] = {}
        #: trace key -> digest of the live recorder's analytics.
        self.live: Dict[str, str] = {}
        self.corpus_simulated_s = 0.0
        self._live_s = 0.0

    def _setup(self, round_index: int) -> None:
        # Round r captures shard r % shards; a repeated shard is captured
        # again into a fresh store, so every round does the same work.
        shard = round_index % self.setup_shards
        reps = self.params["reps"]
        every = _pressure_specs(
            self.name, self.seed, reps * self.setup_shards,
            self.params["duration_s"],
        )
        per_shard = len(every) // self.setup_shards
        specs = every[shard * per_shard:(shard + 1) * per_shard]
        repeat = round_index >= self.setup_shards
        root = self.scratch / (f"corpus-{round_index}" if repeat else "corpus")
        store = TraceStore(root / "traces")
        cache = ResultCache(root / "cache")
        # The check's reference: analytics of the very recorders that
        # record_traces stores, taken live before they are saved.
        live: Dict[str, str] = {}
        original = replay.record_session_trace
        live_s = 0.0

        def record_and_analyse(spec):  # type: ignore[no-untyped-def]
            nonlocal live_s
            result, recorder = original(spec)
            start = time.perf_counter()
            live[trace_key(cache_key(spec))] = analyze_view(recorder).digest()
            live_s += time.perf_counter() - start
            return result, recorder

        replay.record_session_trace = record_and_analyse
        self.ledger.take()
        try:
            results = record_traces(specs, store, jobs=1, cache=cache)
        finally:
            replay.record_session_trace = original
        sessions = self.ledger.take()
        # The live analytics are the check's reference, not set-up work.
        self._live_s = live_s
        if not repeat:
            self.corpus_simulated_s += sum(s.simulated_s for s in sessions)
            self.specs.extend(specs)
            self.live.update(live)
            for spec, result in zip(specs, results):
                self.cold[cache_key(spec)] = result

    def setup(self, round_index: int) -> float:
        return super().setup(round_index) - self._live_s

    def run_pass(self) -> PassOutput:
        directory = self.pass_dir()
        store = TraceStore(self.scratch / "corpus" / "traces")
        cache = ResultCache(self.scratch / "corpus" / "cache")
        report = FabricReport()
        analytics = analyze_store(store, jobs=1, report=report)
        warm = run_sessions(self.specs, jobs=1, cache=cache, report=report)
        return PassOutput(
            directory, [analytics, warm], report,
            simulated_s=self.corpus_simulated_s, stores=[cache, store],
            traces=store.root,
        )

    def check(self, out: PassOutput) -> Check:
        check = Check()
        analytics, warm = out.results
        for key, digest in sorted(self.live.items()):
            got = analytics.get(key)
            check.job(
                got is not None and got.digest() == digest,
                f"trace {key[:12]}: replay analytics differ from live",
            )
        for spec, result in zip(self.specs, warm):
            check.job(
                result == self.cold[cache_key(spec)],
                f"seed {spec.seed}: warm read differs from the cold result",
            )
        check.job(
            out.report.cache_hits == len(self.specs),
            f"warm pass read {out.report.cache_hits} of {len(self.specs)} "
            "sessions from the cache",
        )
        return check


class Fleet(Workload):
    """§3 population on the process pool."""

    name = "fleet"
    item = "devices"

    def __init__(
        self, seed: int, size: str, scratch: Path, ledger: SessionLedger
    ) -> None:
        super().__init__(seed, size, scratch, ledger)
        self.digests: List[str] = []

    def _setup(self, round_index: int) -> None:
        self.config = FleetConfig(
            n_devices=self.params["devices"], hours_scale=0.003,
            seed=self.seed,
        )

    @property
    def items(self) -> int:
        return self.config.n_devices

    @property
    def cohorts(self) -> int:
        return n_cohorts(self.config)

    def run_pass(self) -> PassOutput:
        directory = self.pass_dir()
        report = FabricReport()
        fleet = run_fleet(
            self.config, jobs=self.params["jobs"],
            journal=fleet_journal(directory / "fleet.journal", resume=False),
            report=report,
        )
        return PassOutput(
            directory, [fleet.summary], report,
            simulated_s=float(fleet.summary.total_samples),
        )

    def check(self, out: PassOutput) -> Check:
        """The summary covers every device, and its digest repeats."""
        summary = out.results[0]
        digest = summary.state_digest()
        self.digests.append(digest)
        check = Check(attempted=self.cohorts)
        if (
            summary.n_devices != self.config.n_devices
            or digest != self.digests[0]
            or out.report.computed != self.cohorts
        ):
            check.failed = self.cohorts
            check.problems.append(
                f"fleet pass: {summary.n_devices} of {self.config.n_devices} "
                f"devices, digest {digest[:12]} vs first {self.digests[0][:12]}"
            )
        return check


WORKLOADS = {cls.name: cls for cls in (Playback, Pressure, Mine, Fleet)}


def check_goldens(kinds: Sequence[str]) -> Check:
    """The canonical goldens, one job per canonical session."""
    from repro.validate.golden import check_golden, check_trace_golden

    check = Check()
    reports: List[Dict[str, List[str]]] = []
    if "session" in kinds:
        reports.append(check_golden())
    if "trace" in kinds:
        reports.append(check_trace_golden())
    for report in reports:
        for name, problems in sorted(report.items()):
            check.job(not problems, f"golden {name}: {'; '.join(problems)}")
    return check


def stored_trace_events(root: Path) -> int:
    """Events held by the traces stored under ``root``."""
    from repro.trace.store import load_trace

    store = TraceStore(root)
    total = 0
    for key in store.keys():
        view = load_trace(store.path_for(key))
        total += (
            sum(len(v) for v in view.transitions.values())
            + len(view.preemptions) + len(view.rotations)
            + sum(view.migrations.values())
            + sum(len(v) for v in view.counters.values())
        )
    return total


def disk_bytes(directory: Path) -> int:
    """Bytes of every file under ``directory`` (0 when it is absent)."""
    if not directory.exists():
        return 0
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
