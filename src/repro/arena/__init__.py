"""The memory-aware ABR arena: policies compete, QoE objectives score.

§6 of the paper sketches the *opportunity* of memory-pressure-aware
adaptation; this package turns it into a competition harness — the
repo's first product surface.  Policies register under stable names
(:mod:`repro.arena.policies`), every (policy × device × pressure × rep)
cell runs through the fault-tolerant experiment fabric
(:mod:`repro.arena.driver`), composite QoE objectives score each
session (:mod:`repro.arena.scoring`), and the standings land in a
schema-versioned, content-addressed leaderboard artifact
(:mod:`repro.arena.leaderboard`) behind the ``repro arena`` CLI.
"""

from .driver import (
    ARENA_JOBS,
    ARENA_SCHEMA_VERSION,
    ArenaConfig,
    ArenaJob,
    ArenaRecord,
    ArenaResult,
    arena_job_key,
    arena_jobs,
    run_arena,
    run_arena_job,
)
from .leaderboard import artifact_bytes, build_leaderboard, render_table, write_artifact
from .policies import (
    PolicyEntry,
    build_policy,
    get_policy,
    policy_names,
    register_policy,
)
from .scoring import (
    OBJECTIVES,
    AdditiveObjective,
    MultiplicativeObjective,
    QoEObjective,
    QoEScore,
    SessionMetrics,
    metrics_from,
    perceptual_quality,
    score_all,
)
from .trace import ArenaTrace, TraceCollector

__all__ = [
    "ARENA_JOBS",
    "ARENA_SCHEMA_VERSION",
    "AdditiveObjective",
    "ArenaConfig",
    "ArenaJob",
    "ArenaRecord",
    "ArenaResult",
    "ArenaTrace",
    "MultiplicativeObjective",
    "OBJECTIVES",
    "PolicyEntry",
    "QoEObjective",
    "QoEScore",
    "SessionMetrics",
    "TraceCollector",
    "arena_job_key",
    "arena_jobs",
    "artifact_bytes",
    "build_leaderboard",
    "build_policy",
    "get_policy",
    "metrics_from",
    "perceptual_quality",
    "policy_names",
    "register_policy",
    "render_table",
    "run_arena",
    "run_arena_job",
    "score_all",
    "write_artifact",
]
