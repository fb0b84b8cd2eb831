"""Batch-kernel vs per-device-oracle equivalence.

The cohort engine's contract is *bitwise* agreement with the v1
per-device path (`generator._debounce`, `generator._emit_signals`, the
scalar AR(1) walk): each kernel is checked against its scalar oracle on
random inputs, then the full pipeline is checked end to end — the
columnar logs of ``simulate_cohort`` must equal the logs produced by
``reference_cohort_logs`` (which replays v1's exact per-device code on
the same named streams).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study import cohort
from repro.study.cohort import (
    FAST_COEFF,
    SERVICE_COEFF60,
    SLOW_COEFF60,
    FleetConfig,
    ar1_batch,
    cohort_size,
    columns_to_logs,
    debounce_flat,
    n_cohorts,
    reference_cohort_logs,
    reference_fleet_logs,
    signal_counts_from_runs,
    simulate_cohort,
)
from repro.study.generator import _ar1, _debounce, _emit_signals

CFG = FleetConfig(n_devices=12, hours_scale=0.02, seed=7, cohort_size=5)


def _random_states(rng, n_devices, max_len):
    """Concatenated random int8 state series with bursty runs."""
    series = []
    for _ in range(n_devices):
        n = int(rng.integers(1, max_len))
        runs = []
        while sum(len(r) for r in runs) < n:
            runs.append(
                np.full(int(rng.integers(1, 15)), rng.integers(0, 4))
            )
        series.append(np.concatenate(runs)[:n].astype(np.int8))
    offsets = np.concatenate(
        ([0], np.cumsum([len(s) for s in series]))
    ).astype(np.int64)
    return np.concatenate(series), offsets, series


# ----------------------------------------------------------------------
# Kernel vs oracle on random inputs
# ----------------------------------------------------------------------

def _naive_ar1(noise, coeff):
    """``y = coeff·y + x`` one scalar at a time, per row, from a zero
    state: numpy float32 scalars for float32, Python floats for float64."""
    rows = noise.reshape(-1, noise.shape[-1])
    out = np.empty_like(rows)
    if noise.dtype == np.float32:
        c, zero, scalars = np.float32(coeff), np.float32(0.0), list
    else:
        c, zero, scalars = float(coeff), 0.0, np.ndarray.tolist
    for r, row in enumerate(rows):
        xs = scalars(row)
        y = xs[0] + zero
        out[r, 0] = y
        for t in range(1, len(xs)):
            y = y * c + xs[t]
            out[r, t] = y
    return out.reshape(noise.shape)


def _same_bits(a, b):
    """Equal dtype, shape and bit pattern (so ``-0.0 != +0.0``)."""
    return (
        a.dtype == b.dtype and a.shape == b.shape
        and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
    )


def _innovations(rng, shape, dtype, negative_zero_first):
    """Normal innovations with some exact signed zeros mixed in."""
    noise = (rng.standard_normal(shape) * 100.0).astype(dtype)
    zeros = rng.random(shape) < 0.02
    noise[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    if negative_zero_first:
        noise[..., 0] = -0.0
    return noise


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    chunks=st.integers(1, 6),
    ragged=st.integers(0, 40),
    min_chunk=st.sampled_from([3, 16, 64]),
    lanes=st.sampled_from([4, cohort.AR1_LANES]),
    coeff=st.sampled_from(
        [FAST_COEFF, SLOW_COEFF60, SERVICE_COEFF60, 0.999, 1.0]
    ),
    dtype=st.sampled_from([np.float32, np.float64]),
    negative_zero_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_batch_matches_naive_recursion(
    rows, chunks, ragged, min_chunk, lanes, coeff, dtype,
    negative_zero_first, seed,
):
    """Chunked speculate-and-repair equals the sequential walk bit for
    bit: one chunk or many, ragged last chunks, single rows, a ``-0.0``
    first sample, and coefficients (0.999, 1.0) whose chunks never meet
    their stored values, so the repair runs more than one pass."""
    noise = _innovations(
        np.random.default_rng(seed), (rows, chunks * min_chunk + ragged),
        dtype, negative_zero_first,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohort, "AR1_MIN_CHUNK", min_chunk)
        mp.setattr(cohort, "AR1_LANES", lanes)
        out = ar1_batch(noise, coeff)
    assert _same_bits(out, _naive_ar1(noise, coeff))
    assert not np.signbit(out[..., 0][noise[..., 0] == 0.0]).any()


@pytest.mark.parametrize(
    "shape, dtype, coeff",
    [
        ((1, 3600), np.float32, FAST_COEFF),       # 7 chunks, ragged
        ((3, 1700), np.float32, 1.0),              # 3 chunks, multi-pass
        ((2, 2, 1100), np.float64, 0.999),         # batch dims, 2 chunks
        ((1024, 40), np.float32, SERVICE_COEFF60),  # rows fill the lanes
    ],
)
def test_ar1_batch_matches_naive_recursion_at_default_chunking(
    shape, dtype, coeff
):
    noise = _innovations(np.random.default_rng(5), shape, dtype, True)
    assert _same_bits(ar1_batch(noise, coeff), _naive_ar1(noise, coeff))


def test_ar1_batch_repair_compares_bits_not_values():
    """A ``-0.0`` walk: the exact series is ``-0.0`` after its first
    (tiny negative) step, while every speculative chunk holds ``+0.0``,
    which compares equal as a float; only a bitwise comparison repairs
    the chunks, one pass each."""
    noise = np.full((2, 2000), -0.0, dtype=np.float32)
    noise[:, 0] = -np.finfo(np.float32).smallest_subnormal
    out = ar1_batch(noise, 0.5)
    assert _same_bits(out, _naive_ar1(noise, 0.5))
    assert np.signbit(out).all()


def test_ar1_batch_matches_scalar_lfilter_rows():
    lfilter = pytest.importorskip("scipy.signal").lfilter
    rng = np.random.default_rng(11)
    noise = rng.normal(0.0, 1.0, size=(7, 500))
    coeff = 1.0 - 1.0 / 420.0
    batched = ar1_batch(noise, coeff)
    for row in range(noise.shape[0]):
        expected = lfilter([1.0], [1.0, -coeff], noise[row])
        assert np.array_equal(batched[row], expected)


@pytest.mark.parametrize("coeff", [FAST_COEFF, SLOW_COEFF60, 1.0])
def test_ar1_batch_matches_float32_lfilter_when_chunked(coeff):
    lfilter = pytest.importorskip("scipy.signal").lfilter
    noise = _innovations(np.random.default_rng(2), (2, 3000), np.float32, True)
    b = np.ones(1, dtype=np.float32)
    a = np.array([1.0, -coeff], dtype=np.float32)
    assert _same_bits(ar1_batch(noise, coeff), lfilter(b, a, noise, axis=-1))


def test_ar1_batch_preserves_float32():
    noise = np.random.default_rng(0).random((3, 64)).astype(np.float32)
    assert ar1_batch(noise, 0.9).dtype == np.float32


def test_v1_ar1_is_the_float64_scalar_walk():
    theta, sigma = 1.0 / 420.0, 0.0055
    walk = _ar1(5000, theta, sigma, np.random.default_rng(3))
    noise = np.random.default_rng(3).normal(0.0, sigma, size=5000)
    assert _same_bits(walk, _naive_ar1(noise, 1.0 - theta))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_debounce_flat_matches_v1_debounce(seed):
    rng = np.random.default_rng(seed)
    flat, offsets, series = _random_states(rng, 9, 400)
    debounced, _runs = debounce_flat(flat, offsets, min_dwell_s=6)
    expected = np.concatenate(
        [_debounce(s.copy(), min_dwell_s=6) for s in series]
    )
    assert np.array_equal(debounced, expected)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_signal_counts_match_v1_emit_signals(seed):
    rng = np.random.default_rng(seed)
    flat, offsets, series = _random_states(rng, 9, 400)
    debounced, runs = debounce_flat(flat, offsets, min_dwell_s=6)
    counts, _entry, _reemit = signal_counts_from_runs(runs, len(series))
    for dev, s in enumerate(series):
        signals = _emit_signals(
            _debounce(s.copy(), min_dwell_s=6)
        )
        expected = np.zeros(4, dtype=np.int64)
        for _t, code in signals:
            expected[code] += 1
        assert np.array_equal(counts[dev], expected), f"device {dev}"


def test_debounce_keeps_first_short_run():
    # v1 keeps a device's first run even when it is shorter than the
    # dwell floor (start > 0 guard); the batch kernel must too.
    flat = np.array([2, 2, 0, 0, 0, 0, 0, 0], dtype=np.int8)
    offsets = np.array([0, 8], dtype=np.int64)
    debounced, _ = debounce_flat(flat, offsets, min_dwell_s=6)
    assert np.array_equal(debounced, _debounce(flat.copy(), min_dwell_s=6))
    assert debounced[0] == 2  # first run survived


# ----------------------------------------------------------------------
# Full pipeline vs the per-device reference oracle
# ----------------------------------------------------------------------

def test_cohort_columns_bitwise_equal_reference_logs():
    for cohort in range(n_cohorts(CFG)):
        result = simulate_cohort(cohort, CFG, collect_columns=True)
        batch_logs = columns_to_logs(result.columns)
        oracle_logs = reference_cohort_logs(cohort, CFG)
        assert len(batch_logs) == len(oracle_logs)
        for got, want in zip(batch_logs, oracle_logs):
            assert got.info == want.info
            assert np.array_equal(got.timestamps, want.timestamps)
            assert np.array_equal(got.available_mb, want.available_mb)
            assert np.array_equal(got.state, want.state)
            assert np.array_equal(got.interactive, want.interactive)
            assert np.array_equal(got.n_services, want.n_services)
            assert got.signals == want.signals


def test_simulate_cohort_deterministic():
    a = simulate_cohort(0, CFG)
    b = simulate_cohort(0, CFG)
    assert a.summary == b.summary


def test_collect_columns_does_not_perturb_summary():
    # Service counts are drawn only in collect mode, on their own named
    # stream — the summary must not change.
    assert (
        simulate_cohort(0, CFG).summary
        == simulate_cohort(0, CFG, collect_columns=True).summary
    )


def test_cohort_size_auto_bounds():
    assert 4 <= cohort_size(FleetConfig(n_devices=10**6)) <= 1024
    explicit = FleetConfig(n_devices=100, cohort_size=7)
    assert cohort_size(explicit) == 7
    assert n_cohorts(explicit) == 15


def test_reference_fleet_logs_covers_all_devices():
    logs = reference_fleet_logs(CFG)
    assert len(logs) == CFG.n_devices
    assert [log.info.device_id for log in logs] == [
        f"user{i:03d}" for i in range(CFG.n_devices)
    ]
