"""Synthetic user-study population (§3 substitute).

The paper recruited 80 users and logged ~9950 hours of 1 Hz memory
samples with SignalCapturer.  Without those users, we generate a
population whose *mechanisms* follow §2/§3:

* device RAM sampled from a low-to-mid-heavy market mix (1-8 GB),
  across 12 manufacturers;
* vendor- and RAM-dependent available-memory thresholds for the
  Moderate/Low/Critical signals ("the available memory at which
  different memory events get generated differs across devices");
* per-user memory appetite: occupied memory follows a two-timescale
  AR(1) process — a slow component (app sessions, minutes) plus fast
  jitter (allocation churn, seconds).  Pressure states come from
  classifying available memory against the thresholds, so dwell times
  in high-pressure states are naturally short and bursty (Figure 6) and
  transitions mostly move between adjacent states;
* interactive (screen-on) sessions alternate with idle periods on a
  day/night cycle; the analysis keeps devices with >= 10 interactive
  hours, exactly like the paper's cleaning step.

Every statistic reported by :mod:`repro.study.analysis` is computed
from these logs the same way the paper's notebooks computed theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Callable, List, Optional

import numpy as np

from ..sim.rng import RandomStreams
from .signalcapturer import (
    CAPTURER_FOOTPRINT_MB,
    STATE_CODES,
    DeviceInfo,
    DeviceLog,
)

MANUFACTURERS = [
    "Samsung", "Xiaomi", "Huawei", "Oppo", "Vivo", "Nokia",
    "Motorola", "Realme", "Tecno", "Infinix", "OnePlus", "Google",
]

#: Market mix of device RAM sizes (GB) — §3: "1 GB to 8 GB".
RAM_CHOICES_GB = np.array([1, 2, 3, 4, 6, 8])
RAM_WEIGHTS = np.array([0.16, 0.26, 0.24, 0.19, 0.10, 0.05])

#: Re-emission period for sustained non-normal states (seconds).
REEMIT_PERIOD_S = 120.0


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for the synthetic population."""

    n_users: int = 80
    mean_hours: float = 124.0
    min_hours: float = 24.0
    max_hours: float = 432.0  # 18 days
    #: Scale factor on observation length (tests use < 1 for speed).
    hours_scale: float = 1.0
    seed: int = 0


def _mean_utilization(ram_gb: int, rng: np.random.Generator) -> float:
    """A user's long-run mean RAM utilization, by device class.

    Smaller devices run proportionally fuller (the OS floor dominates),
    matching Figure 2's CDF where 80% of devices sit at >= 60% median
    utilization.
    """
    base = {1: 0.78, 2: 0.72, 3: 0.68, 4: 0.63, 6: 0.56, 8: 0.50}[ram_gb]
    mean = rng.normal(base, 0.08)
    if rng.random() < 0.05:
        # A small pathological subpopulation lives pinned against the
        # thresholds (the paper found two devices spending > 40% of
        # their time in Critical memory).
        mean += rng.uniform(0.12, 0.22)
    return float(np.clip(mean, 0.35, 0.97))


def _thresholds_mb(total_mb: float, rng: np.random.Generator) -> tuple:
    """(moderate, low, critical) available-memory thresholds in MB.

    Vendors configure higher absolute thresholds on larger-RAM devices
    (§3, Figure 5 discussion); jitter models vendor customisation.
    """
    critical = total_mb * rng.uniform(0.035, 0.065)
    low = critical * rng.uniform(1.35, 1.65)
    moderate = critical * rng.uniform(1.9, 2.4)
    return moderate, low, critical


def _interactive_mask(n: int, rng: np.random.Generator) -> np.ndarray:
    """Alternating screen-on/off sessions over a day/night cycle.

    Logging starts whenever the user installed the app, so each device
    gets a random phase within the day.
    """
    mask = np.zeros(n, dtype=bool)
    phase = float(rng.uniform(0.0, 24.0))
    t = 0
    while t < n:
        hour_of_day = (t / 3600.0 + phase) % 24.0
        awake = 8.0 <= hour_of_day <= 23.5
        if awake:
            on = rng.random() < 0.42
            duration = int(rng.exponential(480 if on else 900)) + 30
        else:
            on = rng.random() < 0.04
            duration = int(rng.exponential(240 if on else 5400)) + 60
        end = min(n, t + duration)
        if on:
            mask[t:end] = True
        t = end
    return mask


def _ar1(n: int, theta: float, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """A zero-mean AR(1) series: ``y[t] = (1-theta)·y[t-1] + noise[t]``.

    Python floats round ``y·coeff`` and the sum once each, as a float64
    ``lfilter`` does; the walk starts from ``0.0``, so ``y[0] = 0.0 +
    noise[0]``.  One series is one lane, and at the slow coefficient
    (0.9976) time chunks meet too slowly for
    :func:`repro.study.cohort.ar1_batch` to split it, so a scalar walk
    beats a one-lane numpy loop.
    """
    coeff = 1.0 - theta
    noise = rng.normal(0.0, sigma, size=n)
    walk = accumulate(noise.tolist(), lambda y, x: y * coeff + x, initial=0.0)
    return np.fromiter(islice(walk, 1, None), dtype=np.float64, count=n)


def generate_device_log(
    device_index: int,
    config: PopulationConfig,
    randoms: RandomStreams,
) -> DeviceLog:
    """Generate one device's complete SignalCapturer log."""
    rng = randoms.numpy_stream(f"study.device{device_index}")
    ram_gb = int(rng.choice(RAM_CHOICES_GB, p=RAM_WEIGHTS))
    total_mb = ram_gb * 1024
    manufacturer = MANUFACTURERS[int(rng.integers(len(MANUFACTURERS)))]
    hours = float(
        np.clip(
            rng.lognormal(np.log(config.mean_hours), 0.6),
            config.min_hours,
            config.max_hours,
        )
    ) * config.hours_scale
    n = max(3600, int(hours * 3600))

    mean_util = _mean_utilization(ram_gb, rng)
    # Slow component: app sessions (minutes); fast: churn (seconds).
    slow = _ar1(n, theta=1.0 / 420.0, sigma=0.0055, rng=rng)
    fast = _ar1(n, theta=1.0 / 8.0, sigma=0.008, rng=rng)
    utilization = np.clip(mean_util + slow + fast, 0.12, 0.995)

    available = total_mb * (1.0 - utilization) - CAPTURER_FOOTPRINT_MB
    available = np.maximum(available, total_mb * 0.005)

    moderate_mb, low_mb, critical_mb = _thresholds_mb(total_mb, rng)
    state = np.zeros(n, dtype=np.int8)
    state[available < moderate_mb] = STATE_CODES["moderate"]
    state[available < low_mb] = STATE_CODES["low"]
    state[available < critical_mb] = STATE_CODES["critical"]
    state = _debounce(state, min_dwell_s=6)

    interactive = _interactive_mask(n, rng)
    n_services = np.clip(
        np.round(22 + _ar1(n, theta=1.0 / 600.0, sigma=0.35, rng=rng)),
        3, 80,
    ).astype(np.int16)

    signals = _emit_signals(state)

    info = DeviceInfo(
        device_id=f"user{device_index:03d}",
        manufacturer=manufacturer,
        total_mb=total_mb,
        android_version=str(rng.choice(["9", "10", "11", "12"])),
        n_cores=int(rng.choice([4, 4, 8, 8, 8])),
    )
    return DeviceLog(
        info=info,
        timestamps=np.arange(n, dtype=np.int64),
        available_mb=available.astype(np.float32),
        state=state,
        interactive=interactive,
        n_services=n_services,
        signals=signals,
    )


def _debounce(state: np.ndarray, min_dwell_s: int) -> np.ndarray:
    """Suppress state runs shorter than ``min_dwell_s`` seconds.

    The ActivityManager does not flip OnTrimMemory levels on every 1 s
    fluctuation; short excursions are absorbed into the previous state,
    which both rate-limits signals and produces the multi-second dwell
    times of Figure 6.
    """
    if len(state) == 0:
        return state
    result = state.copy()
    changes = np.flatnonzero(np.diff(result) != 0) + 1
    boundaries = np.concatenate(([0], changes, [len(result)]))
    current = int(result[0])
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        if end - start < min_dwell_s and start > 0:
            result[start:end] = current
        else:
            current = int(result[start])
    return result


def _emit_signals(state: np.ndarray) -> list:
    """OnTrimMemory emissions: one on each entry into a non-normal
    state, plus one every REEMIT_PERIOD_S while the state persists."""
    signals = []
    entries = np.flatnonzero(np.diff(state) != 0) + 1
    boundaries = np.concatenate(([0], entries, [len(state)]))
    previous = STATE_CODES["normal"]
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        code = int(state[start])
        if code != STATE_CODES["normal"]:
            # onTrimMemory fires when the trim level *rises*; a falling
            # level is not signalled (the app simply stops being asked
            # to trim), but a sustained state re-notifies periodically.
            if code > previous:
                signals.append((int(start), code))
            extra = int((end - start - 1) // REEMIT_PERIOD_S)
            for k in range(1, extra + 1):
                signals.append((int(start + k * REEMIT_PERIOD_S), code))
        previous = code
    return signals


def _generate_log_job(args: tuple) -> DeviceLog:
    """Worker entry point: regenerate one device from (index, config).

    Each device draws only from its own named stream
    (``study.device<i>``), which is derived from the master seed by
    name — so a fresh :class:`RandomStreams` per worker reproduces the
    serial run bit for bit, regardless of which process runs which
    device.
    """
    device_index, config = args
    return generate_device_log(device_index, config, RandomStreams(config.seed))


def generate_population(
    config: Optional[PopulationConfig] = None,
    jobs: Optional[int] = None,
    sink: Optional[Callable[[DeviceLog], None]] = None,
) -> List[DeviceLog]:
    """Generate the full user-study population.

    ``jobs`` fans device generation out over worker processes (None/1 =
    serial, 0 = all cores); results return in device order either way,
    and parallel output is identical to serial output.  Requested
    workers are clamped to usable cores and a pool is only built when
    more than one worker would actually run — on a single-core
    container a pool is pure pickle overhead (BENCH 2026-08-06.2
    measured 0.96x "speedup").

    ``sink`` streams each finished log out (e.g. straight to
    :func:`repro.study.export.save_device_log`) instead of accumulating
    them, so memory stays O(1 device) and the return value is an empty
    list.  Without a sink the full list is kept — the escape hatch for
    small populations (the fleet engine in :mod:`repro.study.fleet`
    streams cohort shards the same way at population scale).
    """
    config = config or PopulationConfig()
    workers = 1
    if jobs is not None and config.n_users > 1:
        from ..experiments.parallel import resolve_jobs

        resolved = resolve_jobs(jobs)
        workers = max(1, min(resolved if resolved else 1, config.n_users))
    if workers == 1:
        randoms = RandomStreams(config.seed)
        kept: List[DeviceLog] = []
        for i in range(config.n_users):
            log = generate_device_log(i, config, randoms)
            if sink is not None:
                sink(log)
            else:
                kept.append(log)
        return kept
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        logs = pool.map(
            _generate_log_job,
            [(i, config) for i in range(config.n_users)],
            chunksize=max(1, config.n_users // (workers * 4)),
        )
        if sink is None:
            return list(logs)
        for log in logs:
            sink(log)
        return []
