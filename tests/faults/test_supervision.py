"""Supervision tests: retries, failure budgets, and pool recovery.

The fabric's resilience guarantee is stronger than "doesn't crash": a
recovered run must be **bit-identical** to a fault-free one, because a
session's result is a pure function of its spec.
"""

from __future__ import annotations

import warnings

import pytest

from repro.arena import ARENA_JOBS, ArenaConfig, arena_jobs, run_arena
from repro.experiments.parallel import (
    SWEEP_JOBS,
    FabricReport,
    JobFailedError,
    RetryPolicy,
    SessionSpec,
    cache_key,
    run_sessions,
)
from repro.faults.chaos import results_digest
from repro.faults.injector import Fault, installed_plan
from repro.study.cohort import FleetConfig
from repro.study.fleet import FLEET_JOBS, cohort_jobs, run_fleet
from repro.trace.replay import (
    TRACE_ANALYTICS_JOBS,
    TRACE_RECORD_JOBS,
    analyze_store,
    record_traces,
)
from repro.trace.store import TraceStore

FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_s=0.001)


def _spec(seed=7, **overrides):
    base = dict(
        device="nexus5", resolution="240p", fps=30, pressure="normal",
        client=None, duration_s=2.0, seed=seed,
    )
    base.update(overrides)
    return SessionSpec(**base)


def test_retry_after_transient_failures_is_bit_identical(tmp_path):
    """The retry-determinism satellite: a job that fails N-1 times and
    then succeeds yields a byte-identical SessionResult — the injected
    failures must not perturb the session's seed schedule."""
    spec = _spec()
    [clean] = run_sessions([spec], cache=False)

    report = FabricReport()
    with installed_plan(
        [Fault(point=f"job:{cache_key(spec)}", kind="raise", times=2)],
        tmp_path,
    ):
        [recovered] = run_sessions(
            [spec], cache=False, policy=FAST_RETRIES, report=report
        )
    assert recovered == clean  # full dataclass equality
    assert results_digest([recovered]) == results_digest([clean])
    assert report.failures == 2
    assert report.retries == 2
    assert report.computed == 1  # the final, successful attempt


def test_exhausted_retry_budget_raises_job_failed(tmp_path):
    spec = _spec()
    with installed_plan(
        [Fault(point=f"job:{cache_key(spec)}", kind="raise", times=5)],
        tmp_path,
    ):
        with pytest.raises(JobFailedError, match="after 2 attempts"):
            run_sessions(
                [spec], cache=False,
                policy=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            )


def test_backoff_is_deterministic_bounded_and_jittered():
    policy = RetryPolicy()
    for attempt in range(6):
        delay = policy.backoff_s(seed=123, attempt=attempt)
        assert delay == policy.backoff_s(seed=123, attempt=attempt)
        base = min(
            policy.backoff_max_s,
            policy.backoff_base_s * policy.backoff_factor ** attempt,
        )
        assert base <= delay <= base * (1 + policy.jitter_frac)
    # Jitter varies with the seed (not a constant factor).
    assert policy.backoff_s(1, 0) != policy.backoff_s(2, 0)


def test_poisoned_pool_job_recovers_serially(tmp_path):
    """A job raising inside a worker re-runs serially in-process and the
    sweep's results stay identical to a fault-free serial run."""
    specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
    clean = run_sessions(specs, cache=False)

    report = FabricReport()
    with installed_plan(
        [Fault(point=f"job:{cache_key(specs[2])}", kind="raise", times=1)],
        tmp_path,
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = run_sessions(
                specs, jobs=2, cache=False,
                policy=FAST_RETRIES, report=report,
            )
    assert recovered == clean
    assert results_digest(recovered) == results_digest(clean)
    assert report.failures >= 1
    assert report.serial_fallback >= 1


# ----------------------------------------------------------------------
# Every job kind: one driver, one fault point per keyed job
# ----------------------------------------------------------------------
# Each kind gives (family, the payload to fault, run(root, **fabric)):
# ``run`` drives the kind's own driver and returns a comparable result.

def _sweep_kind(tmp_path):
    spec = _spec()
    return SWEEP_JOBS, spec, lambda root, **fabric: run_sessions(
        [spec], cache=False, **fabric
    )


def _trace_record_kind(tmp_path):
    spec = _spec()
    return TRACE_RECORD_JOBS, spec, lambda root, **fabric: record_traces(
        [spec], TraceStore(root), cache=False, **fabric
    )


def _trace_analytics_kind(tmp_path):
    store = TraceStore(tmp_path / "corpus")
    record_traces([_spec()], store, cache=False)
    [key] = store.keys()
    return TRACE_ANALYTICS_JOBS, key, lambda root, **fabric: analyze_store(
        store, **fabric
    )


def _fleet_kind(tmp_path):
    config = FleetConfig(n_devices=12, hours_scale=0.02, seed=7, cohort_size=5)
    return FLEET_JOBS, cohort_jobs(config)[1], lambda root, **fabric: (
        run_fleet(config, **fabric).summary.state_digest()
    )


def _arena_kind(tmp_path):
    config = ArenaConfig(
        policies=("buffer",), devices=("nexus5",), pressures=("normal",),
        reps=1, duration_s=2.0,
    )
    return ARENA_JOBS, arena_jobs(config)[0], lambda root, **fabric: (
        run_arena(config, **fabric).leaderboard
    )


@pytest.mark.parametrize("kind", [
    _sweep_kind, _trace_record_kind, _trace_analytics_kind, _fleet_kind,
    _arena_kind,
], ids=["sweep", "trace-record", "trace-analytics", "fleet", "arena"])
def test_every_job_kind_retries_a_fault_at_its_key(kind, tmp_path):
    """The fabric fires ``job:<key>`` for every keyed job of every kind,
    and a retried job's result equals the fault-free run's."""
    family, payload, run = kind(tmp_path)
    clean = run(tmp_path / "clean", jobs=1)

    report = FabricReport()
    with installed_plan(
        [Fault(point=f"job:{family.key(payload)}", kind="raise", times=1)],
        tmp_path,
    ):
        faulted = run(
            tmp_path / "faulted", jobs=1, policy=FAST_RETRIES, report=report
        )
    assert report.retries == 1
    assert faulted == clean
