"""Fleet orchestration: cohort shards on the parallel fabric.

Ties the cohort kernel (:mod:`repro.study.cohort`) to the experiment
fabric (:mod:`repro.experiments.parallel`): each cohort is one job with
a content-addressed key, fanned out via :func:`run_jobs` — which brings
chunked dispatch, supervision (retries, hang detection, pool restart,
serial degradation), and the checkpoint journal to million-device
population runs.  An interrupted run (Ctrl-C → exit 130) resumes from
its journal with ``--resume``, exactly like sweeps.

Determinism: a cohort's randomness comes only from its named streams
(derived from the master seed and the cohort index), and summary
merging is associative — so any ``--jobs`` value, any shard→process
placement, and any resume/retry history produce a bit-identical merged
:class:`~repro.study.cohort.FleetSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.checkpoint import SweepJournal
from ..experiments.parallel import FabricReport, RetryPolicy, run_jobs
from ..storage import JobFamily, canonical_digest
from .cohort import (
    CohortResult,
    FleetConfig,
    FleetSummary,
    columns_to_logs,
    n_cohorts,
    simulate_cohort,
)
from .signalcapturer import DeviceLog

#: Bump when the fleet model or FleetSummary layout changes in a way
#: that alters results: old journals and export files then stop
#: matching.
POP_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CohortJob:
    """One cohort shard: fully determined by (config, cohort index).

    ``export_dir`` (when set) makes the worker write the cohort's
    columnar logs as ``cohort-<index>.npz`` before returning;
    ``keep_columns`` ships the columns back in the result (small
    populations only — it defeats the O(cohorts) memory bound).
    """

    cohort_index: int
    config: FleetConfig
    export_dir: Optional[str] = None
    keep_columns: bool = False


def cohort_job_key(job: CohortJob) -> str:
    """Content address of a cohort job (journal key, fault point)."""
    config = job.config
    material: Dict[str, Any] = {
        "schema": POP_SCHEMA_VERSION,
        "cohort": job.cohort_index,
        "n_devices": config.n_devices,
        "mean_hours": repr(float(config.mean_hours)),
        "min_hours": repr(float(config.min_hours)),
        "max_hours": repr(float(config.max_hours)),
        "hours_scale": repr(float(config.hours_scale)),
        "seed": config.seed,
        "cohort_size": config.cohort_size,
        "min_interactive_hours": (
            None if config.min_interactive_hours is None
            else repr(float(config.min_interactive_hours))
        ),
        "compression": config.compression,
        "export": job.export_dir or "",
        "keep": job.keep_columns,
    }
    return canonical_digest(material)


#: Cohort shards: what ``repro study --devices`` journals.
FLEET_JOBS = JobFamily(
    "fleet", POP_SCHEMA_VERSION, CohortResult, cohort_job_key
)


def cohort_jobs(
    config: FleetConfig,
    export_dir: Optional[Path] = None,
    keep_logs: bool = False,
) -> List[CohortJob]:
    """The run's cohort jobs, in cohort order."""
    return [
        CohortJob(
            cohort_index=c,
            config=config,
            export_dir=None if export_dir is None else str(export_dir),
            keep_columns=keep_logs,
        )
        for c in range(n_cohorts(config))
    ]


def run_cohort_job(job: CohortJob) -> CohortResult:
    """Worker entry point: simulate one cohort shard."""
    collect = job.export_dir is not None or job.keep_columns
    result = simulate_cohort(
        job.cohort_index, job.config, collect_columns=collect
    )
    if job.export_dir is not None and result.columns is not None:
        from .export import save_cohort_columns

        save_cohort_columns(
            result.columns,
            Path(job.export_dir) / f"cohort-{job.cohort_index:05d}.npz",
        )
    if not job.keep_columns:
        result = CohortResult(job.cohort_index, result.summary, None)
    return result


def fleet_journal(path: Path | str, resume: bool = True) -> SweepJournal:
    """A checkpoint journal for cohort-shard jobs."""
    return SweepJournal(path, resume=resume, family=FLEET_JOBS)


@dataclass
class FleetResult:
    """Outcome of one :func:`run_fleet` call."""

    config: FleetConfig
    summary: FleetSummary
    report: FabricReport
    #: npz files written by the cohort workers (export mode).
    export_paths: List[Path] = field(default_factory=list)
    #: Materialized per-device logs (``keep_logs`` mode only).
    logs: Optional[List[DeviceLog]] = None


def run_fleet(
    config: FleetConfig,
    jobs: Optional[int] = None,
    journal: Optional[SweepJournal] = None,
    export_dir: Optional[Path] = None,
    keep_logs: bool = False,
    policy: Optional[RetryPolicy] = None,
    report: Optional[FabricReport] = None,
) -> FleetResult:
    """Simulate the whole fleet and merge the cohort summaries.

    ``jobs`` fans cohorts out over worker processes (None/1 = serial);
    ``journal`` checkpoints each finished cohort for ``--resume``;
    ``export_dir`` streams per-cohort columnar logs to disk as shards
    complete (memory stays O(cohorts)); ``keep_logs`` instead carries
    the logs home in RAM — the escape hatch for small populations.
    """
    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
    payloads = cohort_jobs(config, export_dir, keep_logs)
    stats = report if report is not None else FabricReport()
    results: Sequence[Optional[CohortResult]] = run_jobs(
        payloads,
        run_cohort_job,
        family=FLEET_JOBS,
        jobs=jobs,
        journal=journal,
        policy=policy,
        report=stats,
    )

    summary = FleetSummary()
    logs: Optional[List[DeviceLog]] = [] if keep_logs else None
    export_paths: List[Path] = []
    for result in results:
        assert result is not None  # run_jobs raises rather than drops
        summary = summary.merge(result.summary)
        if logs is not None and result.columns is not None:
            logs.extend(columns_to_logs(result.columns))
        if export_dir is not None:
            export_paths.append(
                export_dir / f"cohort-{result.cohort_index:05d}.npz"
            )
    return FleetResult(
        config=config,
        summary=summary,
        report=stats,
        export_paths=export_paths,
        logs=logs,
    )
