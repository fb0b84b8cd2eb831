"""Golden-trace regression: compact digests of canonical sessions.

Three canonical sessions — one per paper device, spanning the pressure
range — run with the invariant harness attached, and their results are
reduced to a digest: frame counts, crash/kill outcomes, rounded PSS
statistics, and a SHA-256 over the full FPS/PSS/signal series.  The
digests live under ``tests/golden/`` (one JSON file per device) and CI
fails on any drift, so a change that moves simulation results must
refresh them deliberately (``repro validate --update-golden``) and
explain why in the same commit.

Digests are intentionally *compact*: they pin behaviour without
committing megabytes of trace, and the per-field breakdown makes drift
reports readable (a changed kill count reads differently from a changed
series hash).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.session import StreamingSession
from ..storage import canonical_digest
from ..video.player import SessionResult

#: Environment override for the golden-digest directory (tests).
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"

#: One canonical session per device profile.  Moderate pressure on the
#: small-RAM devices exercises the reclaim/kill machinery; the 3 GB
#: Nexus 6P at normal pressure pins the clean-playback path.
CANONICAL_SESSIONS: Dict[str, Dict[str, Any]] = {
    "nokia1": dict(
        device="nokia1", resolution="480p", frame_rate=30,
        pressure="moderate", duration_s=15.0, seed=1021,
    ),
    "nexus5": dict(
        device="nexus5", resolution="720p", frame_rate=30,
        pressure="moderate", duration_s=15.0, seed=1021,
    ),
    "nexus6p": dict(
        device="nexus6p", resolution="1080p", frame_rate=30,
        pressure="normal", duration_s=15.0, seed=1021,
    ),
}


def golden_dir() -> Path:
    env = os.environ.get(GOLDEN_DIR_ENV)
    if env:
        return Path(env)
    # src/repro/validate/golden.py -> repo root is three levels up.
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def session_digest(result: SessionResult) -> Dict[str, object]:
    """Reduce a session result to its regression digest."""
    series = {
        "fps": [round(v, 6) for v in result.fps_series],
        "pss": [[round(t, 6), round(v, 6)] for t, v in result.pss_series],
        "signals": [[round(t, 6), level.name] for t, level in result.signals],
        "bitrates": list(result.played_bitrates_kbps),
    }
    return {
        "device": result.device_name,
        "resolution": result.resolution,
        "fps": result.fps,
        "frames_processed": result.frames_processed,
        "frames_rendered": result.frames_rendered,
        "dropped_decode_late": result.dropped_decode_late,
        "dropped_render_late": result.dropped_render_late,
        "dropped_skipped": result.dropped_skipped,
        "crashed": result.crashed,
        "crash_reason": result.crash_reason,
        "lmkd_kills": result.lmkd_kills,
        "oom_kills": result.oom_kills,
        "signals": len(result.signals),
        "rebuffer_s": round(result.rebuffer_s, 6),
        "wall_span_s": round(result.wall_span_s, 6),
        "pss_mean_mb": round(result.pss_mean_mb, 3),
        "pss_max_mb": round(result.pss_max_mb, 3),
        "series_sha256": canonical_digest(series),
    }


def run_canonical_session(name: str, validate: bool = True) -> SessionResult:
    """Run one canonical session (invariant-checked by default)."""
    params = CANONICAL_SESSIONS[name]
    session = StreamingSession(validate=validate, **params)
    result = session.run()
    return result


def compute_digest(name: str, validate: bool = True) -> Dict[str, object]:
    return session_digest(run_canonical_session(name, validate=validate))


def load_digest(name: str) -> Optional[Dict[str, object]]:
    path = golden_dir() / f"{name}.json"
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def write_digest(name: str, digest: Dict[str, object]) -> Path:
    directory = golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(digest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def diff_digests(expected: Dict[str, object], got: Dict[str, object]) -> List[str]:
    """Human-readable field-level differences (empty when identical)."""
    problems = []
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            problems.append(
                f"{key}: expected {expected.get(key)!r}, got {got.get(key)!r}"
            )
    return problems


def check_golden(
    names: Optional[List[str]] = None,
    update: bool = False,
    validate: bool = True,
) -> Dict[str, List[str]]:
    """Compare (or refresh) golden digests.

    Returns ``{name: [problem, ...]}`` with an empty list per clean
    session.  With ``update=True`` digests are rewritten and every
    session reports clean.
    """
    report: Dict[str, List[str]] = {}
    for name in names or sorted(CANONICAL_SESSIONS):
        digest = compute_digest(name, validate=validate)
        if update:
            write_digest(name, digest)
            report[name] = []
            continue
        expected = load_digest(name)
        if expected is None:
            report[name] = [
                f"no golden digest at {golden_dir() / (name + '.json')} "
                "(run `repro validate --update-golden`)"
            ]
        else:
            report[name] = diff_digests(expected, digest)
    return report


# ----------------------------------------------------------------------
# Trace record/replay goldens
# ----------------------------------------------------------------------

def compute_trace_digest(name: str) -> Dict[str, object]:
    """Record one canonical session's trace, round-trip it through the
    columnar store, and digest both the trace content and the replayed
    §5 analytics.

    The digest locks four independent properties at once:

    * the recorded event stream itself (``trace_content_sha256``);
    * the on-disk format (a save/load round trip must reproduce the
      exact same content digest — ``roundtrip_identical``);
    * the analytics (``analytics_sha256`` over all five §5 queries,
      with ``replay_analytics_identical`` asserting the replayed trace
      answers them bit-identically to the live recorder);
    * recording neutrality (``session_series_sha256`` must equal the
      untraced canonical session's ``series_sha256`` — a recorder that
      perturbs the simulation drifts here first).
    """
    import tempfile

    from ..experiments.parallel import SessionSpec, cache_key
    from ..trace.replay import analyze_view, record_session_trace
    from ..trace.store import (
        TRACE_SCHEMA_VERSION,
        load_trace,
        save_trace,
        trace_digest,
        trace_key,
    )

    params = CANONICAL_SESSIONS[name]
    spec = SessionSpec(
        device=params["device"],
        resolution=params["resolution"],
        fps=params["frame_rate"],
        pressure=params["pressure"],
        client=None,
        duration_s=params["duration_s"],
        seed=params["seed"],
    )
    result, recorder = record_session_trace(spec)
    live_content = trace_digest(recorder)
    live_analytics = analyze_view(recorder)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_trace(
            recorder, Path(tmp) / "golden.trace.npz",
            meta={"session": cache_key(spec)},
        )
        replayed = load_trace(path)
    replay_content = trace_digest(replayed)
    replay_analytics = analyze_view(replayed)
    return {
        "trace_schema": TRACE_SCHEMA_VERSION,
        "trace_key": trace_key(cache_key(spec)),
        "threads": live_content["threads"],
        "transitions": live_content["transitions"],
        "preemptions": live_content["preemptions"],
        "rotations": live_content["rotations"],
        "migrations": live_content["migrations"],
        "span_ticks": live_content["span_ticks"],
        "trace_content_sha256": live_content["content_sha256"],
        "roundtrip_identical": replay_content == live_content,
        "analytics_sha256": live_analytics.digest(),
        "replay_analytics_identical":
            replay_analytics.digest() == live_analytics.digest(),
        "session_series_sha256": session_digest(result)["series_sha256"],
    }


def check_trace_golden(
    names: Optional[List[str]] = None,
    update: bool = False,
) -> Dict[str, List[str]]:
    """Compare (or refresh) the trace record/replay goldens.

    Digest files live next to the session goldens as
    ``tests/golden/trace_<name>.json``; report keys are
    ``trace:<name>`` so the two families read distinctly.
    """
    report: Dict[str, List[str]] = {}
    for name in names or sorted(CANONICAL_SESSIONS):
        digest = compute_trace_digest(name)
        file_name = f"trace_{name}"
        if update:
            write_digest(file_name, digest)
            report[f"trace:{name}"] = []
            continue
        expected = load_digest(file_name)
        if expected is None:
            report[f"trace:{name}"] = [
                f"no golden digest at {golden_dir() / (file_name + '.json')} "
                "(run `repro validate --update-golden`)"
            ]
        else:
            report[f"trace:{name}"] = diff_digests(expected, digest)
    return report
