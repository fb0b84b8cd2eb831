#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload playback --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it runs one extra pass under a
profiler and prints the per-layer metrics instead.  Every run checks
the program's outputs.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give every metric with its unit for people.  The exit code
is 0 only when every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("playback", "pressure", "mine", "fleet")

#: Set-up, and the imports before it, are repeated this many times per
#: untraced run; ``setup_s`` reports the medians.
SETUP_ROUNDS = 3
#: Share of ``--seconds`` a traced run spends on untraced passes (the
#: base of ``bench.trace_overhead_x``); the profiled pass follows.
TRACE_BASE_SHARE = 0.5

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("sim_speed_x", "sim-s/s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "fraction"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.self_s", "s"),
    ("sim.schedule_calls", "count"),
    ("sim.emit_calls", "count"),
    ("sim.simulated_s", "sim-s"),
    ("sim.host_us_per_event", "us"),
    ("sched.self_s", "s"),
    ("sched.slice_end_calls", "count"),
    ("sched.elided_slices", "count"),
    ("sched.preemptions", "count"),
    ("kernel.self_s", "s"),
    ("kernel.pgscan", "pages"),
    ("kernel.pgsteal", "pages"),
    ("kernel.reclaim_ratio", "fraction"),
    ("kernel.kswapd_wakeups", "count"),
    ("kernel.allocstall", "count"),
    ("kernel.lmkd_kills", "count"),
    ("kernel.oom_kills", "count"),
    ("video.self_s", "s"),
    ("video.frames_processed", "frames"),
    ("video.frames_rendered", "frames"),
    ("video.render_ratio", "fraction"),
    ("core.self_s", "s"),
    ("core.session_build_s", "s"),
    ("device.self_s", "s"),
    ("workload.self_s", "s"),
    ("cli.import_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.overhead_s", "s"),
    ("experiments.wait_s", "s"),
    ("experiments.jobs_computed", "count"),
    ("experiments.cache_hits", "count"),
    ("experiments.retries", "count"),
    ("experiments.failures", "count"),
    ("storage.self_s", "s"),
    ("storage.publish_s", "s"),
    ("storage.publish_calls", "count"),
    ("storage.fsync_calls", "count"),
    ("storage.bytes_written", "bytes"),
    ("storage.read_s", "s"),
    ("storage.reads_verified", "count"),
    ("trace.self_s", "s"),
    ("trace.save_s", "s"),
    ("trace.load_s", "s"),
    ("trace.analyze_s", "s"),
    ("trace.events_stored", "count"),
    ("study.self_s", "s"),
    ("study.cohorts", "count"),
    ("study.merge_s", "s"),
    ("other.self_s", "s"),
    ("bench.trace_overhead_x", "x"),
    ("bench.profiled_s", "s"),
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the smoke test",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    # The program's own temporary files (pool heartbeats, golden round
    # trips) stay inside the checkout too.
    (scratch / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(scratch / "tmp")
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def run(args: argparse.Namespace, scratch: Path) -> int:
    from layers import SessionLedger
    from workloads import WORKLOADS, Check, check_goldens

    traced = bool(args.trace)
    ledger = SessionLedger()
    ledger.install()
    workload = WORKLOADS[args.workload](args.seed, args.size, scratch, ledger)

    rounds = workload.setup_shards
    if not traced:
        rounds = max(rounds, SETUP_ROUNDS)
    setup_times = [workload.setup(i) for i in range(rounds)]

    checks = Check()
    budget = args.seconds * (TRACE_BASE_SHARE if traced else 1.0)
    walls: List[float] = []
    speeds: List[float] = []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        out = workload.run_pass()
        wall = time.perf_counter() - start
        checks.add(workload.check(out))
        shutil.rmtree(out.directory, ignore_errors=True)
        walls.append(wall)
        speeds.append(out.simulated_s / wall)
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.mean(walls) > budget:
            break
    wall_s = statistics.median(walls)

    metrics: Dict[str, float]
    if traced:
        metrics = traced_pass(workload, checks, wall_s, scratch)
        catalog = PER_LAYER
    else:
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        # Imports are timed in fresh interpreters, after the RSS reading
        # so that those interpreters do not count as pool children.
        metrics = {
            "wall_s": wall_s,
            "sim_speed_x": statistics.median(speeds),
            "items_per_s": workload.items / wall_s,
            "setup_s": import_s("workloads")
            + workload.setup_shards * statistics.median(setup_times),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        catalog = END_TO_END

    ledger.take()
    checks.add(check_goldens(workload.goldens))
    ledger.take()
    ledger.uninstall()

    fail_ratio = checks.failed / checks.attempted
    if not traced:
        metrics["ok_ratio"] = 1.0 - fail_ratio
    for problem in checks.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    print(
        f"workload {workload.name}  seed {args.seed}  size {args.size}  "
        f"{workload.items} {workload.item} per pass  "
        f"{len(walls)} timed passes"
    )
    for name, unit in catalog:
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    if not traced:
        print(f"  {workload.item + '_per_s':<28} {metrics['items_per_s']:>16.6g} 1/s")
    print(f"  {'fail_ratio':<28} {fail_ratio:>16.6g} fraction")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in catalog
        },
    }))
    return 0 if checks.failed == 0 else 1


def traced_pass(
    workload: Any, checks: Any, base_wall_s: float, scratch: Path
) -> Dict[str, float]:
    """One pass under the profiler; returns the per-layer metrics."""
    from layers import Attribution, load_stats, profile_pool_workers, summarize
    from workloads import disk_bytes, stored_trace_events

    import repro

    worker_dir = scratch / "worker-profiles"
    pool = (
        profile_pool_workers(worker_dir) if workload.name == "fleet"
        else nullcontext()
    )
    profiler = cProfile.Profile()
    with pool:
        start = time.perf_counter()
        profiler.enable()
        out = workload.run_pass()
        profiler.disable()
        traced_wall = time.perf_counter() - start
    bytes_written = disk_bytes(out.directory)
    events = stored_trace_events(out.traces) if out.traces else 0
    checks.add(workload.check(out))
    sessions = out.sessions

    stats = load_stats(profiler, worker_dir.glob("*.prof"))
    prof = summarize(stats, Attribution(Path(repro.__file__).parent, BENCH_DIR))
    self_s = prof.self_s

    engine, parallel = "sim/engine.py", "experiments/parallel.py"
    schedule_calls = (
        prof.calls(engine, "schedule") + prof.calls(engine, "schedule_at")
    )
    # Devices built outside StreamingSession.__init__ (the trace recorder
    # builds the device first) still count as session build time.
    device_build = sum(
        cum
        for factory in ("nokia1", "nexus5", "nexus6p")
        for caller, cum in prof.callers_ct.get(
            ("device/device.py", factory), {}
        ).items()
        if caller != ("core/session.py", "__init__")
    )
    fabric_s = prof.cum_s(parallel, "run_sessions") + prof.cum_s(parallel, "run_jobs")
    job_s = (
        prof.cum_s(parallel, "run_spec")
        + prof.cum_s("trace/replay.py", "record_trace_job")
        + prof.cum_s("trace/replay.py", "analyze_trace_path")
        + prof.cum_s("study/fleet.py", "run_cohort_job")
    )
    workers = workload.params.get("jobs", 1)
    pgscan = sum(s.pgscan for s in sessions)
    pgsteal = sum(s.pgsteal for s in sessions)
    processed = sum(s.frames_processed for s in sessions)
    rendered = sum(s.frames_rendered for s in sessions)
    return {
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.schedule_calls": schedule_calls,
        "sim.emit_calls": prof.calls(engine, "emit"),
        "sim.simulated_s": sum(s.simulated_s for s in sessions),
        "sim.host_us_per_event": (
            base_wall_s * 1e6 / schedule_calls if schedule_calls else 0.0
        ),
        "sched.self_s": self_s.get("sched", 0.0),
        "sched.slice_end_calls": prof.calls("sched/scheduler.py", "_slice_end"),
        "sched.elided_slices": sum(s.elided_slices for s in sessions),
        "sched.preemptions": sum(s.preemptions for s in sessions),
        "kernel.self_s": self_s.get("kernel", 0.0),
        "kernel.pgscan": pgscan,
        "kernel.pgsteal": pgsteal,
        "kernel.reclaim_ratio": pgsteal / pgscan if pgscan else 0.0,
        "kernel.kswapd_wakeups": sum(s.kswapd_wakeups for s in sessions),
        "kernel.allocstall": sum(s.allocstall for s in sessions),
        "kernel.lmkd_kills": sum(s.lmkd_kills for s in sessions),
        "kernel.oom_kills": sum(s.oom_kills for s in sessions),
        "video.self_s": self_s.get("video", 0.0),
        "video.frames_processed": processed,
        "video.frames_rendered": rendered,
        "video.render_ratio": rendered / processed if processed else 0.0,
        "core.self_s": self_s.get("core", 0.0),
        "core.session_build_s": (
            prof.cum_s("core/session.py", "__init__") + device_build
        ),
        "device.self_s": self_s.get("device", 0.0),
        "workload.self_s": self_s.get("workload", 0.0),
        "cli.import_s": import_s("repro.cli"),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.overhead_s": fabric_s - job_s / workers,
        "experiments.wait_s": self_s.get("experiments.wait", 0.0),
        "experiments.jobs_computed": out.report.computed,
        "experiments.cache_hits": out.report.cache_hits,
        "experiments.retries": out.report.retries,
        "experiments.failures": out.report.failures,
        "storage.self_s": self_s.get("storage", 0.0),
        "storage.publish_s": prof.cum_s("storage/atomic.py", "publish_via"),
        "storage.publish_calls": prof.calls("storage/atomic.py", "publish_via"),
        "storage.fsync_calls": prof.c_calls.get("<built-in method posix.fsync>", 0),
        "storage.bytes_written": bytes_written,
        "storage.read_s": prof.cum_s("storage/envelope.py", "verified_read"),
        "storage.reads_verified": sum(s.report.verified for s in out.stores),
        "trace.self_s": self_s.get("trace", 0.0),
        "trace.save_s": prof.cum_s("trace/store.py", "save_trace"),
        "trace.load_s": (
            prof.cum_s("trace/store.py", "load_trace")
            + prof.cum_s("trace/store.py", "load_trace_bytes")
        ),
        "trace.analyze_s": prof.cum_s("trace/replay.py", "analyze_view"),
        "trace.events_stored": events,
        "study.self_s": self_s.get("study", 0.0),
        "study.cohorts": getattr(workload, "cohorts", 0),
        "study.merge_s": prof.cum_s("study/cohort.py", "merge"),
        "other.self_s": self_s.get("other", 0.0),
        "bench.trace_overhead_x": traced_wall / base_wall_s,
        "bench.profiled_s": prof.total_s,
    }


def import_s(module: str) -> float:
    """Median host time of importing ``module`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)])
    )
    times = []
    for _ in range(SETUP_ROUNDS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
