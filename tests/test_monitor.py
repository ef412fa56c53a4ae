"""Injection estimator algebra and the Monte Carlo coincidence simulator."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flqkd import (
    EstimatorUndefinedError,
    MonitorCounts,
    MonitorSimConfig,
    ValidationError,
    estimate_fe,
    monitor,
    simulate_monitor,
    sweep_injection,
)
from monitor_oracle import frozen_draw_idler, frozen_poisson_times, frozen_window_hulls

BASE = MonitorSimConfig(
    pair_rate=2.0e5,
    ase_rate_at_source=2.0e5,
    kappa=0.5,
    f_e_true=0.0,
    tap_alice=1e-3,
    tap_bob=1e-3,
    det_eff_idler=0.9,
    det_eff_alice=0.9,
    det_eff_bob=0.9,
    dead_time=5e-8,
    coinc_window=1e-9,
    shift_offset=2e-7,
    duration=10.0,
    rng_seed=90125,
)


def _counts(f, ratio_a=0.4, acc_a=0.02, acc_b=0.01, s_a=5e4, s_b=8e4, t=30.0):
    ratio_b = (1.0 - f) * ratio_a
    return MonitorCounts(
        s_a=s_a,
        c_ia=(acc_a + ratio_a) * s_a,
        c_ia_shift=acc_a * s_a,
        s_b=s_b,
        c_ib=(acc_b + ratio_b) * s_b,
        c_ib_shift=acc_b * s_b,
        duration=t,
    )


def test_estimator_round_trip():
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        est, se = estimate_fe(_counts(f))
        assert math.isclose(est, f, rel_tol=0, abs_tol=1e-12)
        assert se > 0.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-3, max_value=0.5),
    st.floats(min_value=1e3, max_value=1e7),
    st.floats(min_value=1e3, max_value=1e7),
)
def test_estimator_round_trip_property(f, ratio_a, s_a, s_b):
    est, se = estimate_fe(_counts(f, ratio_a=ratio_a, s_a=s_a, s_b=s_b))
    assert math.isclose(est, f, rel_tol=0, abs_tol=1e-9)
    assert np.isfinite(se) and se > 0.0


def test_estimator_error_scales_with_duration():
    c1 = _counts(0.5, t=30.0)
    c4 = _counts(0.5, t=120.0)
    _, se1 = estimate_fe(c1)
    _, se4 = estimate_fe(c4)
    assert math.isclose(se4, se1 / 2.0, rel_tol=1e-12)


def test_estimator_undefined_cases():
    with pytest.raises(EstimatorUndefinedError):
        estimate_fe(MonitorCounts(5e4, 10.0, 10.0, 8e4, 50.0, 10.0, 30.0))
    with pytest.raises(EstimatorUndefinedError):
        estimate_fe(MonitorCounts(5e4, 10.0, 40.0, 8e4, 50.0, 10.0, 30.0))
    with pytest.raises(EstimatorUndefinedError):
        estimate_fe(MonitorCounts(5e4, 2e4, 100.0, 0.0, 0.0, 0.0, 30.0))


def test_counts_validation():
    with pytest.raises(ValidationError):
        MonitorCounts(5e4, 6e4, 10.0, 8e4, 50.0, 10.0, 30.0)  # c_ia > s_a
    with pytest.raises(ValidationError):
        MonitorCounts(5e4, 1e4, 10.0, 8e4, 50.0, 10.0, 0.0)  # bad duration
    with pytest.raises(ValidationError):
        MonitorCounts(5e4, -1.0, 10.0, 8e4, 50.0, 10.0, 30.0)


def test_sim_config_validation():
    for field, bad in [
        ("pair_rate", -1.0),
        ("kappa", 0.0),
        ("kappa", 1.0),
        ("f_e_true", -0.1),
        ("f_e_true", 1.1),
        ("tap_alice", 0.0),
        ("tap_alice", 2e-3),
        ("tap_bob", 0.1),
        ("det_eff_bob", 0.0),
        ("det_eff_idler", 1.2),
        ("dead_time", -1e-9),
        ("coinc_window", 0.0),
        ("shift_offset", 5e-8),  # < 100 * coinc_window
        ("duration", 0.0),
        ("rng_seed", -1),
        ("rng_seed", 2**64),
        # a seed that is not an integer would run as another seed
        ("rng_seed", 1.5),
        ("rng_seed", 1.0),
        ("rng_seed", True),
        ("rng_seed", np.bool_(True)),
        ("rng_seed", "1"),
        ("pair_rate", 1e30),  # more events than a run may draw
        ("duration", 1e20),
    ]:
        with pytest.raises(ValidationError):
            replace(BASE, **{field: bad})
    # the 100x boundary itself is allowed, and so are numpy integer seeds
    replace(BASE, shift_offset=100.0 * BASE.coinc_window)
    replace(BASE, rng_seed=np.uint64(2**64 - 1))
    replace(BASE, rng_seed=np.int64(7))
    # so is a run just under the event bound; these are built, never run
    limit = monitor.MAX_RUN_EVENTS / sum(monitor._category_rates(BASE).values())
    replace(BASE, duration=limit * (1.0 - 1e-9))
    with pytest.raises(ValidationError, match="events"):
        replace(BASE, duration=limit * (1.0 + 1e-9))


def test_simulation_is_deterministic():
    a = simulate_monitor(BASE)
    b = simulate_monitor(BASE)
    assert a == b
    c = simulate_monitor(replace(BASE, rng_seed=90126))
    assert c != a


def test_no_pairs_means_no_excess():
    # an empty idler stream gives zero aligned and shifted coincidences
    cfg = replace(BASE, pair_rate=0.0, duration=2.0)
    counts = simulate_monitor(cfg)
    assert counts.c_ia == 0.0 and counts.c_ia_shift == 0.0
    assert counts.s_b > 0.0
    with pytest.raises(EstimatorUndefinedError):
        estimate_fe(counts)


def test_dead_time_only_removes_counts():
    slow = replace(BASE, dead_time=1e-3, duration=5.0)
    fast = replace(BASE, dead_time=0.0, duration=5.0)
    cs, cf = simulate_monitor(slow), simulate_monitor(fast)
    assert cs.s_a < cf.s_a
    assert cs.s_b <= cf.s_b
    assert cs.c_ia <= cf.c_ia


def test_full_replacement_estimates_near_one():
    cfg = replace(BASE, f_e_true=1.0, duration=20.0)
    est, se = estimate_fe(simulate_monitor(cfg))
    assert abs(est - 1.0) < 0.05
    assert se > 0.0


def test_estimate_within_error_bars_mid_injection():
    cfg = replace(BASE, f_e_true=0.3, duration=60.0, rng_seed=5150)
    counts = simulate_monitor(cfg)
    est, se = estimate_fe(counts)
    assert abs(est - 0.3) < 4.0 * se
    assert se < 0.05


def test_long_run_singles_and_estimate_are_consistent():
    cfg = replace(BASE, duration=60.0)
    counts = simulate_monitor(cfg)
    source = cfg.pair_rate + cfg.ase_rate_at_source
    expected_b = (1.0 - cfg.tap_alice) * cfg.kappa * source * cfg.tap_bob * cfg.det_eff_bob
    assert abs(counts.s_b - expected_b) < 5.0 * math.sqrt(expected_b / cfg.duration) + 0.01 * expected_b
    est, se = estimate_fe(counts)
    assert abs(est) < 4.0 * se


def test_shifted_coincidences_match_accidental_scale():
    # with full replacement Bob's arm is independent of the idler, so the
    # aligned and shifted windows must agree statistically
    cfg = replace(
        BASE,
        pair_rate=5e5,
        ase_rate_at_source=4.5e6,
        kappa=0.9,
        f_e_true=1.0,
        duration=60.0,
        rng_seed=8128,
    )
    counts = simulate_monitor(cfg)
    n1 = counts.c_ib * counts.duration
    n2 = counts.c_ib_shift * counts.duration
    assert n1 > 50 and n2 > 50
    z = abs(n1 - n2) / math.sqrt(n1 + n2)
    assert z < 4.0
    # and sit near the analytic accidental rate for a dead-time-limited idler
    r_idler = cfg.pair_rate * cfg.det_eff_idler
    r_live = r_idler / (1.0 + r_idler * cfg.dead_time)
    p_hit = 1.0 - math.exp(-r_live * cfg.coinc_window)
    predicted = counts.s_b * counts.duration * p_hit
    assert 0.7 * predicted < n1 < 1.3 * predicted


def test_saturation_warning_emitted():
    cfg = replace(BASE, pair_rate=3e7, duration=0.02, rng_seed=777)
    counts = simulate_monitor(cfg)
    assert counts.warnings
    assert any("saturation" in w for w in counts.warnings)
    assert not simulate_monitor(replace(BASE, duration=0.02)).warnings


def test_sweep_rows_and_determinism():
    values = [0.0, 0.5, 1.0]
    rows1 = sweep_injection(replace(BASE, duration=3.0), values, trials=3)
    rows2 = sweep_injection(replace(BASE, duration=3.0), values, trials=3)
    assert rows1 == rows2
    assert [r.f_e_true for r in rows1] == values
    for r in rows1:
        assert r.trials == 3
        assert np.isfinite(r.mean_estimate)
        assert r.std_dev >= 0.0
    assert rows1[1].mean_estimate > rows1[0].mean_estimate


def test_sweep_needs_two_trials():
    with pytest.raises(ValidationError):
        sweep_injection(BASE, [0.5], trials=1)


@given(st.lists(st.integers(0, 12), max_size=60), st.lists(st.integers(0, 12), max_size=60))
@example([], [])
@example([], [3, 3])
@example([3, 3], [])
@example([2, 5, 5], [0, 2, 2, 5, 9, 12])
def test_rank_equals_searchsorted_right(edges, points):
    # a few distinct values make ties within and across the arrays common;
    # either array may be the longer one
    edges = np.array(sorted(edges), np.float64)
    points = np.array(sorted(points), np.float64)
    rank = monitor._rank(edges, points)
    assert rank.dtype == np.intp
    assert np.array_equal(rank, np.searchsorted(edges, points, "right"))


def _hex(times):
    return [float.hex(t) for t in times.tolist()]


@st.composite
def trigger_arms(draw):
    """Two sorted trigger arms in a run, a half window and a shift. Some
    triggers lie within a half window of 0, of the shift or of the run's
    end, so that some aligned and shifted windows are clipped by the run;
    the second arm may repeat the first."""
    duration = draw(st.sampled_from([1.0, 36.0, 1e3]))
    half_window = draw(st.sampled_from([5e-10, 1e-3, 0.25]))
    shift = draw(st.floats(0.0, 1.5 * duration))
    near = st.tuples(st.sampled_from([0.0, shift, duration]), st.floats(-half_window, half_window))

    def arm():
        inner = draw(st.lists(st.floats(0.0, duration), max_size=20))
        edges = [min(max(at + d, 0.0), duration) for at, d in draw(st.lists(near, max_size=6))]
        return np.sort(np.array(inner + edges, np.float64))

    first = arm()
    return (first, first.copy() if draw(st.booleans()) else arm()), half_window, shift, duration


def _arms(*arms):
    return tuple(np.array(a, np.float64) for a in arms)


@given(trigger_arms())
# a half window of 0.25 s in a 1-s run: windows of one arm overlap, touch
# (0.0 and 0.5) and reach past both ends of the run; the arms repeat
@example((_arms([0.0, 0.1, 0.5, 0.6, 1.0], [0.0, 0.1, 0.5, 0.6, 1.0]), 0.25, 0.3, 1.0))
@example((_arms([0.0, 0.5], [0.75]), 0.25, 0.0, 1.0))
@example((_arms([], []), 0.25, 0.5, 1.0))
def test_window_hulls_hold_every_counted_window(case):
    # the idler is drawn only on the hulls, so every window that
    # count_coincidences looks in must lie inside one hull, to the bit; the
    # hulls are sorted and disjoint, and equal the frozen union's
    arms, half_window, shift, duration = case
    lo, hi = monitor._window_hulls(arms, half_window, shift, duration)
    frozen = frozen_window_hulls(arms, half_window, shift, duration)
    assert (_hex(lo), _hex(hi)) == (_hex(frozen[0]), _hex(frozen[1]))
    assert np.all(lo[1:] > hi[:-1])
    for triggers in arms:
        for offset in (0.0, shift):
            w_lo, w_hi = monitor._window_edges(triggers, half_window, offset)
            w_lo, w_hi = np.maximum(w_lo, 0.0), np.minimum(w_hi, duration)
            counted = w_hi > w_lo
            w_lo, w_hi = w_lo[counted], w_hi[counted]
            k = np.searchsorted(lo, w_lo, "right") - 1
            assert np.all(k >= 0)
            assert np.all(w_hi <= hi[k])


@st.composite
def span_layouts(draw):
    """Disjoint spans [t0[k], t1[k]) in order. Each lasts a few ulps of its
    start or a multiple of a scale; the next one touches it, starts one ulp
    after its end, or starts a while later. Far from 0, a time drawn near a
    span's end can round onto the next span's start."""
    t = draw(st.sampled_from([0.0, 0.375, 1e6]))
    scale = draw(st.sampled_from([1e-9, 1.0]))
    t0, t1 = [], []
    for _ in range(draw(st.integers(1, 6))):
        ulps = draw(st.integers(0, 16))
        end = t + ulps * np.spacing(max(t, 1.0)) if ulps else t + draw(st.floats(0.01, 4.0)) * scale
        end = max(end, np.nextafter(t, np.inf))
        t0.append(t)
        t1.append(end)
        gap = draw(st.sampled_from(["touch", "ulp", "wide"]))
        t = end if gap == "touch" else np.nextafter(end, np.inf) if gap == "ulp" else end + scale
    return np.array(t0), np.array(t1)


@given(span_layouts(), st.sampled_from([0, 1, 40, 400]), st.integers(0, 2**32 - 1))
def test_draw_spans_equals_the_multi_interval_draw(layout, expected_events, seed):
    t0, t1 = layout
    rate = expected_events / np.cumsum(t1 - t0)[-1]
    times, span = monitor._draw_spans(np.random.default_rng(seed), rate, t0, t1)
    assert _hex(times) == _hex(frozen_poisson_times(np.random.default_rng(seed), rate, t0, t1))
    assert np.array_equal(span, np.searchsorted(t0, times, "right") - 1)


@st.composite
def hull_layouts(draw):
    """Sorted, disjoint window hulls [lo[k], hi[k]], a dead time, and sorted
    partnered idler events. The hulls lie an ulp to many dead times apart;
    the events lie at 0, exactly on a hull's start or end (the next hull's
    bound), on a span start some round draws (lo[k] minus 1, 2 or 4 dead
    times), and anywhere in or between the hulls."""
    dead_time = draw(st.sampled_from([0.0, 0.25, 1.0]))
    t = draw(st.sampled_from([0.0, 0.5, 1e3]))
    lo, hi = [], []
    for _ in range(draw(st.integers(1, 6))):
        if hi:
            gap = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, 9.0]))
            t = hi[-1] + gap if gap else np.nextafter(hi[-1], np.inf)
        lo.append(t)
        t += draw(st.floats(0.01, 2.0))
        hi.append(t)
    marks = [0.0] + lo + hi + [at - m * dead_time for at in lo for m in (1, 2, 4)]
    paired = draw(st.lists(st.sampled_from(marks), max_size=12))
    paired += draw(st.lists(st.floats(0.0, hi[-1] + 1.0), max_size=6))
    paired = np.sort(np.array([p for p in paired if p >= 0.0], np.float64))
    return np.array(lo), np.array(hi), paired, dead_time


@given(hull_layouts(), st.sampled_from([0.0, 0.5, 2.0, 6.0]), st.integers(0, 2**32 - 1))
def test_draw_idler_joins_the_partnered_events_the_frozen_rounds_join(layout, load, seed):
    # the rounds mark the partnered events they take in; the frozen rounds
    # find them again by one search into the stretches' final starts
    lo, hi, paired, dead_time = layout
    rate = load / (dead_time or 1.0)
    hulls = _hex(lo), _hex(hi)
    bulk, joined = monitor._draw_idler(np.random.default_rng(seed), rate, lo, hi, paired, dead_time)
    frozen = frozen_draw_idler(np.random.default_rng(seed), rate, lo, hi, paired, dead_time)
    assert _hex(bulk) == _hex(frozen[0])
    assert _hex(joined) == _hex(frozen[1])
    # the first round reads the caller's hulls and writes none of them
    assert (_hex(lo), _hex(hi)) == hulls


class _FixedDraw:
    """A generator stand-in whose one uniform draw is the given sample."""

    def __init__(self, sample):
        self.sample = np.asarray(sample, np.float64)

    def poisson(self, lam):
        return self.sample.size

    def uniform(self, low, high, size):
        return self.sample.copy()


def test_draw_spans_relabels_a_time_that_rounds_into_the_next_span():
    # two touching spans of 8 ulps at 1e6; the second sample lies in the
    # first span, less than half an ulp of 1e6 below its end, so its time
    # rounds up to the second span's start
    ulp = np.spacing(1e6)
    t0 = 1e6 + np.array([0.0, 8.0]) * ulp
    t1 = t0 + 8 * ulp
    sample = [2.25 * ulp, np.nextafter(8 * ulp, 0.0), 10.25 * ulp]
    times, span = monitor._draw_spans(_FixedDraw(sample), 1.0, t0, t1)
    assert _hex(times) == _hex(frozen_poisson_times(_FixedDraw(sample), 1.0, t0, t1))
    assert times[1] == t0[1]
    assert span.tolist() == [0, 1, 1]
