"""Dead-time and coincidence kernels of flqkd.monitor: the numpy kernels
must agree exactly with the sequential reference loops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flqkd.monitor import count_coincidences, dead_time_filter
from monitor_oracle import count_coincidences_sequential, dead_time_sequential, read_only


def _assert_matches_oracle(times, dead_time):
    # the chunked short-gap mask and the chase only read times
    read_only(times)
    ks, fs = dead_time_sequential(times, dead_time)
    kv, fv = dead_time_filter(times, dead_time)
    assert np.array_equal(ks, kv) and fs == fv
    return kv, fv


def test_dead_time_known_case():
    times = np.array([0.0, 0.3, 1.0, 1.05, 1.11, 2.0])
    kept, free = dead_time_filter(times, 0.1)
    assert kept.tolist() == [0.0, 0.3, 1.0, 1.11, 2.0]
    assert free == 2.1


def test_dead_time_zero_keeps_everything():
    times = np.linspace(0.0, 1.0, 50)
    kept, free = _assert_matches_oracle(times, 0.0)
    assert np.array_equal(kept, times)
    assert free == times[-1]


def test_dead_time_empty_input():
    # nothing kept: the detector was never blocked
    kept, free = _assert_matches_oracle(np.empty(0), 0.1)
    assert kept.size == 0 and kept.dtype == np.float64 and free == -np.inf


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), max_size=120), st.floats(0.0, 0.5))
def test_dead_time_numpy_equals_sequential(values, dead_time):
    _assert_matches_oracle(np.sort(np.array(values, np.float64)), dead_time)


@given(st.lists(st.integers(0, 40), max_size=120), st.integers(0, 9))
def test_dead_time_numpy_equals_sequential_on_a_grid(ticks, dead_ticks):
    # dyadic ticks make the sums exact: duplicates and gaps of exactly the
    # dead time are common here
    tick = 0.125
    times = np.sort(np.array(ticks, np.float64)) * tick
    _assert_matches_oracle(times, dead_ticks * tick)


@pytest.mark.parametrize("load", [0.01, 1.2, 10.0])
def test_dead_time_numpy_equals_sequential_across_loads(load):
    # load = incident rate * dead time; 10 leaves the detector dead ~91% of
    # the time and makes every cluster long
    rng = np.random.default_rng(int(load * 100))
    dead_time = 5e-8
    times = np.sort(rng.uniform(0.0, 20_000 * dead_time / load, 20_000))
    kept, _ = _assert_matches_oracle(times, dead_time)
    assert kept.size / times.size == pytest.approx(1.0 / (1.0 + load), rel=0.05)


def test_dead_time_gaps_of_exactly_the_dead_time_are_kept():
    dead_time = 0.1
    times = [1.0]
    for _ in range(20):
        times.append(times[-1] + dead_time)
    exact = np.array(times)
    kept, _ = _assert_matches_oracle(exact, dead_time)
    assert np.array_equal(kept, exact)
    # inside a cluster: the event exactly one dead time after the kept one
    kept, _ = _assert_matches_oracle(np.array([0.0, 0.5, 0.75, 1.0, 1.0, 1.5]), 1.0)
    assert kept.tolist() == [0.0, 1.0]
    # one ulp short of the dead time: every other event falls in a dead window
    short = [1.0]
    for _ in range(20):
        short.append(np.nextafter(short[-1] + dead_time, -np.inf))
    kept, _ = _assert_matches_oracle(np.array(short), dead_time)
    assert kept.size == 11


def test_dead_time_duplicate_timestamps():
    times = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    assert _assert_matches_oracle(times, 1.0)[0].tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(_assert_matches_oracle(times, 0.0)[0], times)
    # a dead time below half an ulp of the timestamps blocks nothing
    assert np.array_equal(_assert_matches_oracle(times, 1e-300)[0], times)


def test_coincidence_known_case():
    trig = np.array([1.0, 2.0, 3.0])
    part = np.array([0.9996, 2.2, 2.9997, 3.0002])
    # window 1e-3 centered on each trigger: hits at 1.0 and 3.0 (two partners
    # in one window still count once)
    assert count_coincidences(trig, part, 5e-4, 0.0) == 2


def test_coincidence_shift_moves_the_window():
    # the shifted count pairs each trigger with partners offset earlier
    trig = np.array([1.0, 2.0])
    part = np.array([0.9, 1.9])
    assert count_coincidences(trig, part, 1e-3, 0.0) == 0
    assert count_coincidences(trig, part, 1e-3, 0.1) == 2


def test_coincidence_empty_inputs():
    assert count_coincidences(np.empty(0), np.array([1.0]), 1e-3, 0.0) == 0
    assert count_coincidences(np.array([1.0]), np.empty(0), 1e-3, 0.0) == 0


@given(
    st.lists(st.integers(0, 40), max_size=60),
    st.lists(st.integers(0, 40), max_size=60),
    st.integers(0, 6),
    st.integers(-16, 48),
)
# a partner exactly at d - half_window, and one exactly at d + half_window
@example([10, 20], [8, 22], 2, 0)
# duplicate partners, one window holding two of them
@example([5, 5, 9], [5, 5, 5, 9, 9], 1, 0)
# windows that start past the last partner
@example([30, 38, 40], [1, 3], 2, -8)
# shifts that move windows before 0
@example([0, 4, 12], [0, 1, 2], 3, 16)
def test_coincidence_count_equals_sequential_on_a_grid(trigger_ticks, partner_ticks, half_ticks, offset_ticks):
    # dyadic ticks make d - half_window and d + half_window exact, so
    # partners on a window edge and duplicates are common
    tick = 0.125
    triggers = read_only(np.sort(np.array(trigger_ticks, np.float64)) * tick)
    partners = read_only(np.sort(np.array(partner_ticks, np.float64)) * tick)
    args = (triggers, partners, half_ticks * tick, offset_ticks * tick)
    assert count_coincidences(*args) == count_coincidences_sequential(*args)


def test_paths_agree_on_random_streams():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n = int(rng.integers(0, 400))
        m = int(rng.integers(0, 400))
        scale = 10.0 ** rng.uniform(-3, 0)
        trig = read_only(np.sort(rng.uniform(0.0, 1.0, n)) * scale)
        part = read_only(np.sort(rng.uniform(0.0, 1.0, m)) * scale)
        dead = float(rng.uniform(0.0, 0.01)) * scale
        hw = float(rng.uniform(1e-5, 1e-2)) * scale
        off = float(rng.uniform(0.0, 0.1)) * scale

        ks, fs = dead_time_sequential(trig, dead)
        kv, fv = dead_time_filter(trig, dead)
        assert np.array_equal(ks, kv) and fs == fv

        cs = count_coincidences_sequential(trig, part, hw, off)
        cv = count_coincidences(trig, part, hw, off)
        assert cs == cv
