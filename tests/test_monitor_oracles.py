"""The monitor simulator against independent oracles: a full-stream
simulator, closed-form dead-time, accidental and dead-time-free coincidence
rates, and the empirical spread of the estimator; and its edge runs."""

from __future__ import annotations

import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

import oracle_utils as ou
from flqkd import monitor
from flqkd.errors import EstimatorUndefinedError
from flqkd.monitor import MonitorCounts, MonitorSimConfig, estimate_fe, simulate_monitor
from monitor_oracle import (
    BASE,
    NOMINAL_POINT,
    SATURATED_POINT,
    full_stream_counts,
    live_rate,
    simulate_full_stream,
)

# idler rate x dead time ~1.2, with windows wide enough to see accidentals
SATURATED = replace(
    BASE,
    ase_rate_at_source=2e6,
    kappa=0.9,
    dead_time=6.7e-6,
    coinc_window=5e-7,
    shift_offset=5e-5,
    duration=2.0,
)
TRIALS = 40

ORACLE_CASES = {
    "nominal": BASE,
    "saturated": replace(SATURATED, f_e_true=0.5),
    "high-ase": replace(
        BASE,
        pair_rate=1e6,
        ase_rate_at_source=4e6,
        kappa=0.9,
        coinc_window=1e-7,
        shift_offset=2e-5,
        f_e_true=1.0,
        duration=0.5,
    ),
    "no-dead-time": replace(
        BASE,
        ase_rate_at_source=2e6,
        kappa=0.9,
        dead_time=0.0,
        coinc_window=2e-7,
        shift_offset=2e-5,
        f_e_true=0.5,
    ),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_windowed_engine_matches_the_full_stream(case):
    cfg = ORACLE_CASES[case]
    windowed = np.array(
        [astuple(simulate_monitor(replace(cfg, rng_seed=100 + k)))[:6] for k in range(TRIALS)]
    )
    full = np.array(
        [astuple(simulate_full_stream(replace(cfg, rng_seed=900 + k)))[:6] for k in range(TRIALS)]
    )
    se = np.sqrt((windowed.var(0, ddof=1) + full.var(0, ddof=1)) / TRIALS)
    diff = windowed.mean(0) - full.mean(0)
    for field, d, s in zip(fields(MonitorCounts), diff, se):
        assert abs(d) <= 4.0 * s, f"{case} {field.name}: {d:.4g} vs se {s:.4g}"
    # the aligned windows see true coincidences on Alice's arm in every case
    assert windowed[:, 1].mean() > windowed[:, 2].mean()


def _counts_on_given_streams(cfg, streams, monkeypatch):
    """Run the windowed engine with every draw cut from the given whole-run
    streams (category -> sorted times); return its six counts and those of
    the same streams filtered and counted in one piece. Also checks that no
    stretch of the idler-only stream is drawn twice, and that the one merge
    into the drawn stream takes every partnered idler event."""
    taps = []
    stretches = []
    merged = []
    merge_sorted = monitor._merge_sorted

    def cut(name, t0, t1):
        events = np.asarray(streams.get(name, ()), np.float64)
        t0, t1 = np.atleast_1d(t0), np.atleast_1d(t1)
        k = np.searchsorted(t0, events, "right") - 1
        inside = (k >= 0) & (events < t1[np.maximum(k, 0)])
        return events[inside], k[inside]

    def tap(rng, rate, length):  # a tap-side category over the whole run
        name = monitor._TAP_CATEGORIES[len(taps)]
        taps.append(name)
        return cut(name, 0.0, length)[0]

    def spans(rng, rate, t0, t1):  # stretches of the idler-only stream
        stretches.append((t0, t1))
        return cut("i_only", t0, t1)

    def merge(bulk, add):
        before = bulk.tobytes(), add.tobytes()
        out = merge_sorted(bulk, add)
        # the idler's draw and its partnered events come back unwritten
        assert (bulk.tobytes(), add.tobytes()) == before
        merged.append(add)
        return out

    monkeypatch.setattr(monitor, "_poisson_times", tap)
    monkeypatch.setattr(monitor, "_draw_spans", spans)
    monkeypatch.setattr(monitor, "_merge_sorted", merge)
    counts = simulate_monitor(cfg)
    monkeypatch.undo()
    lo = np.concatenate([s[0] for s in stretches])
    hi = np.concatenate([s[1] for s in stretches])
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    assert np.all(hi >= lo) and np.all(lo[1:] >= hi[:-1])
    paired = np.sort(np.concatenate([cut(name, 0.0, cfg.duration)[0] for name in ("i_alice", "i_bob")]))
    assert len(merged) == 1 and merged[0].tolist() == paired.tolist()
    return counts, full_stream_counts(cfg, streams)


@pytest.mark.parametrize(
    "cfg",
    [
        BASE,
        replace(SATURATED, f_e_true=0.5),
        # idler rate x dead time ~5: stretches reach back many rounds
        replace(SATURATED, dead_time=2.8e-5, shift_offset=1e-4, duration=0.5),
        replace(BASE, dead_time=0.0, coinc_window=2e-7, shift_offset=2e-5, f_e_true=1.0),
        # the benchmark's operating points
        replace(NOMINAL_POINT, duration=4.0, rng_seed=0),
        replace(SATURATED_POINT, duration=4.0, rng_seed=0),
    ],
    ids=["nominal", "saturated", "load-5", "no-dead-time", "nominal-point", "saturated-point"],
)
def test_windowed_engine_counts_equal_the_full_stream_on_shared_draws(cfg, monkeypatch):
    rng = np.random.default_rng(cfg.rng_seed + 1)
    streams = {
        name: np.sort(rng.uniform(0.0, cfg.duration, rng.poisson(rate * cfg.duration)))
        for name, rate in monitor._category_rates(cfg).items()
    }
    windowed, full = _counts_on_given_streams(cfg, streams, monkeypatch)
    assert windowed == full
    # the aligned windows see true coincidences on Alice's arm
    assert full.coinc_a > full.shifted_a and full.coinc_b > 0


def test_benchmark_times_the_shared_operating_points():
    # a monitor workload runs its params for TRIAL_SECONDS at each input's
    # fraction and seed; those runs must be the shared point's, so that the
    # benchmark times the trial these tests and the acceptance gate check
    bench = ou.bench_workloads()
    seconds = bench["TRIAL_SECONDS"]
    for name, point in (("monitor-nominal", NOMINAL_POINT), ("monitor-saturated", SATURATED_POINT)):
        workload = bench["make_workload"](name, ou.ROOT, 1)
        f_e, seed = workload.inputs[0]
        trial = replace(MonitorSimConfig(**workload.params, duration=seconds), f_e_true=f_e, rng_seed=seed)
        assert trial == replace(point, duration=seconds, f_e_true=f_e, rng_seed=seed), name


# no dead time, hand-placed events around T and the start of the run
W, SHIFT, T = 1e-9, 1e-7, 1.0
HAND_PLACED_RUN = replace(BASE, dead_time=0.0, coinc_window=W, shift_offset=SHIFT, duration=2.0)
HAND_PLACED = {
    # a later trigger whose shifted window lies before an earlier trigger's
    # aligned window: the hulls are sorted across both kinds of window
    "shifted-window-first": {
        "a_only": [T - 0.5 * SHIFT],
        "b_only": [T + 0.2 * W],
        "i_only": [T - SHIFT + 0.3 * W, T - 0.5 * SHIFT + 0.3 * W],
    },
    # overlapping windows chain the aligned and the shifted windows into one
    # hull, which holds a partnered event
    "chained-hull": {
        "a_only": T - SHIFT - 1.7 * W + 0.5 * W * np.arange(2 * SHIFT / W + 4),
        "i_bob": [T + 0.1 * W],
    },
    # a shifted window nested inside a hull of aligned windows
    "nested-window": {
        "a_only": T - SHIFT - 2 * W + 0.5 * W * np.arange(9),
        "b_only": [T + 0.5 * W],
        "i_only": [T - SHIFT + 0.5 * W],
    },
    # shifted windows clipped at the start of the run: the longer one sorts
    # first, and the hull keeps its end
    "clipped-at-the-start": {
        "a_only": [SHIFT + 0.3 * W],
        "b_only": [SHIFT + 0.1 * W],
        "i_only": [0.7 * W],
    },
    # Bob's shifted window on Alice's aligned one, an idler event at their
    # start and one an ulp before it: no round holds an event in a new span
    "window-start": {
        "a_only": [T + 0.5 * W],
        "b_only": [T + 0.5 * W + SHIFT],
        "i_only": [np.nextafter(T, 0.0), T],
    },
}


@pytest.mark.parametrize("case", list(HAND_PLACED))
def test_windowed_engine_counts_hand_placed_hulls(case, monkeypatch):
    windowed, full = _counts_on_given_streams(HAND_PLACED_RUN, HAND_PLACED[case], monkeypatch)
    assert windowed == full
    assert full.shifted_a + full.coinc_b + full.shifted_b > 0


# dead time, hand-placed events around the window [L, L + W2] of an Alice
# trigger at L + W2/2; dyadic times make every sum exact, and the shift puts
# each shifted window far out of reach
TAU, W2, L = 2.0**-20, 2.0**-30, 1.0
DEAD_TIME_RUN = replace(BASE, dead_time=TAU, coinc_window=W2, shift_offset=2.0**-12, duration=2.0)
ONE_ULP = np.spacing(L - TAU)
# case -> (streams, expected full-stream counts)
DEAD_TIME_PLACED = {
    # an empty stretch clipped at the previous window's end, one dead time
    # before its own window: after - new is exactly TAU
    "empty-gap-of-a-dead-time": (
        {"a_only": [L - TAU - 0.5 * W2, L + 0.5 * W2], "i_only": [L - TAU - ONE_ULP, L]},
        [2, 2, 0, 0, 0, 0],
    ),
    # the same with the previous window one ulp longer: after - new is one
    # ulp short of TAU, and the idler event at L comes exactly TAU after the
    # one at L - TAU
    "empty-gap-one-ulp-short": (
        {"a_only": [L - TAU + ONE_ULP - 0.5 * W2, L + 0.5 * W2], "i_only": [L - TAU, L]},
        [2, 2, 0, 0, 0, 0],
    ),
    # a stretch clipped at the previous window's end (new == bound) holds an
    # event that the previous window's idler event blocks; kept, it would
    # block the event in the second window
    "clipped-at-the-previous-hull": (
        {
            "a_only": [L - 1.5 * TAU - 0.5 * W2, L + 0.5 * W2],
            "i_only": [L - 1.5 * TAU - 0.5 * W2, L - 0.75 * TAU, L + 0.5 * W2],
        },
        [2, 2, 0, 0, 0, 0],
    ),
    # a partnered event at the stretch's round-0 new, L - 2 TAU, which is
    # round 1's old; Bob's tap blocks it, so it opens no window of its own.
    # Round 0 is inconclusive, and round 1 is clipped at Bob's window
    "partnered-at-new-and-old": (
        {
            "a_only": [L + 0.5 * W2],
            "b_only": [L - 2.5 * TAU],
            "i_bob": [L - 2 * TAU],
            "i_only": [L - 1.25 * TAU, L - 0.5 * TAU, L + 0.5 * W2],
        },
        [1, 0, 0, 1, 0, 0],
    ),
    # a partnered event at the window's start, the stretch's round-0 old
    "partnered-at-the-window-start": (
        {"a_only": [L + 0.5 * W2], "b_only": [L - 0.5 * TAU], "i_bob": [L]},
        [1, 1, 0, 1, 0, 0],
    ),
    # a partnered event on the first window's end, L + W2, where the stretch
    # of Alice's second window, one dead time later, is clipped: it lies on
    # one hull's closed end and in the next stretch's round-0 span. It joins
    # the stream once, hits the first window and blocks the event in the
    # second; Bob's tap blocks the partner
    "partnered-at-a-clipped-stretch": (
        {
            "a_only": [L + 0.5 * W2, L + 0.5 * W2 + TAU],
            "b_only": [L + W2 - 0.5 * TAU],
            "i_bob": [L + W2],
            "i_only": [L + TAU + 0.5 * W2],
        },
        [2, 1, 0, 1, 0, 0],
    ),
    # a partnered event at the window's end hi, which the closed window holds
    "partnered-at-hi": (
        {"a_only": [L + 0.5 * W2], "b_only": [L + W2 - 0.5 * TAU], "i_bob": [L + W2]},
        [1, 1, 0, 1, 0, 0],
    ),
    # the round's only drawn event lies in the window, not in a new span, so
    # no stretch holds an event and every stretch settles on its one gap
    "no-event-in-any-span": (
        {"a_only": [L + 0.5 * W2], "i_only": [L + 0.5 * W2]},
        [1, 1, 0, 0, 0, 0],
    ),
    # a partnered event, which Bob's tap blocks, is the only event in the
    # stretch's round-0 span; the gap from it to the window settles it
    "only-a-partnered-event": (
        {
            "a_only": [L + 0.5 * W2],
            "b_only": [L - 2.5 * TAU],
            "i_bob": [L - 1.75 * TAU],
            "i_only": [L + 0.5 * W2],
        },
        [1, 1, 0, 1, 0, 0],
    ),
    # the partnered event lies between new and the drawn event at
    # L - 0.875 TAU, so that event is no head: round 1 draws the event at
    # L - 2.25 TAU, which blocks the partnered one and leaves L - 0.875 TAU
    # kept to block the window's event
    "partnered-event-before-a-drawn-one": (
        {
            "a_only": [L + 0.5 * W2],
            "b_only": [L - 2.5 * TAU],
            "i_bob": [L - 1.75 * TAU],
            "i_only": [L - 2.25 * TAU, L - 0.875 * TAU, L + 0.5 * W2],
        },
        [1, 0, 0, 1, 0, 0],
    ),
    # a partnered event and a drawn one at the same time: one of them is kept
    "partnered-at-a-drawn-event": (
        {
            "a_only": [L + 0.5 * W2],
            "b_only": [L - 2.5 * TAU],
            "i_bob": [L - 1.75 * TAU],
            "i_only": [L - 1.75 * TAU, L + 0.5 * W2],
        },
        [1, 1, 0, 1, 0, 0],
    ),
    # round 0 finds gaps of 0.75, 0.75 and 0.5 TAU after new = L - 2 TAU;
    # round 1 finds the head at L - 2.125 TAU, which blocks L - 1.25 TAU, so
    # L - 0.5 TAU is kept and blocks the window's event
    "inconclusive-then-settled": (
        {"a_only": [L + 0.5 * W2], "i_only": [L - 2.125 * TAU, L - 1.25 * TAU, L - 0.5 * TAU, L + 0.5 * W2]},
        [1, 0, 0, 0, 0, 0],
    ),
}


@pytest.mark.parametrize("case", list(DEAD_TIME_PLACED))
def test_windowed_engine_counts_hand_placed_dead_time_stretches(case, monkeypatch):
    streams, expected = DEAD_TIME_PLACED[case]
    windowed, full = _counts_on_given_streams(DEAD_TIME_RUN, streams, monkeypatch)
    assert full == MonitorCounts(*expected, DEAD_TIME_RUN.duration)
    assert windowed == full


# Alice's and Bob's taps see ~1.8e4/s and ~1.6e4/s; the idler only 900/s
BUSY_TAPS = replace(BASE, pair_rate=1e3, ase_rate_at_source=2e7, kappa=0.9, duration=2.0)


@pytest.mark.parametrize("dead_time", [0.0, 5e-5, 1.2e-4])
def test_tap_singles_follow_the_non_paralyzable_rate(dead_time):
    # load = rate x dead time reaches ~2.2 at the largest dead time
    cfg = replace(BUSY_TAPS, dead_time=dead_time, rng_seed=31)
    counts = simulate_monitor(cfg)
    loads = monitor._detector_loads(cfg)
    for measured, rate in ((counts.s_a, loads["alice_tap"]), (counts.s_b, loads["bob_tap"])):
        expected = live_rate(rate, dead_time)
        # variance of a non-paralyzable count: r T / (1 + r tau)^3
        sd = math.sqrt(rate * cfg.duration / (1.0 + rate * dead_time) ** 3) / cfg.duration
        assert abs(measured - expected) < 4.0 * sd


@pytest.mark.parametrize(
    "cfg",
    [
        # idler rate x dead time 0.09 and 1.2, window shorter than the dead time
        replace(
            BASE, pair_rate=2e6, ase_rate_at_source=2e7, kappa=0.9,
            coinc_window=4e-8, shift_offset=4e-6, duration=0.5, rng_seed=41,
        ),
        replace(
            SATURATED, ase_rate_at_source=2e7, coinc_window=2e-6, shift_offset=2e-4,
            duration=0.5, rng_seed=42,
        ),
    ],
    ids=["idler-free", "idler-saturated"],
)
def test_shifted_accidentals_match_the_live_idler_rate(cfg):
    # a window shorter than the dead time holds at most one live idler event,
    # so a trigger scores a shifted hit with probability r_live * window
    counts = simulate_monitor(cfg)
    r_live = live_rate(cfg.pair_rate * cfg.det_eff_idler, cfg.dead_time)
    for singles, shifted in ((counts.singles_a, counts.shifted_a), (counts.singles_b, counts.shifted_b)):
        expected = singles * r_live * cfg.coinc_window
        assert expected > 500
        assert abs(shifted - expected) < 4.0 * math.sqrt(expected)


def test_coincidences_follow_the_category_rates_without_dead_time():
    # at tau = 0 a trigger with a detected idler partner always scores an
    # aligned hit; every other aligned window, and every shifted one, holds
    # a Poisson number of idler events at rate r_i
    cfg = replace(ORACLE_CASES["no-dead-time"], duration=20.0, rng_seed=61)
    counts = simulate_monitor(cfg)
    rates = monitor._category_rates(cfg)
    p_hit = -math.expm1(-cfg.pair_rate * cfg.det_eff_idler * cfg.coinc_window)
    arms = (
        (counts.c_ia, counts.c_ia_shift, "i_alice", ("a_only", "ase_a")),
        (counts.c_ib, counts.c_ib_shift, "i_bob", ("b_only", "ase_b", "eve")),
    )
    for aligned, shifted, partnered, unpartnered in arms:
        unpaired = sum(rates[k] for k in unpartnered)
        for measured, expected in (
            (aligned, rates[partnered] + unpaired * p_hit),
            (shifted, (rates[partnered] + unpaired) * p_hit),
        ):
            assert expected * cfg.duration > 500
            assert abs(measured - expected) < 4.0 * math.sqrt(expected / cfg.duration)


@pytest.mark.parametrize(
    "cfg",
    [replace(BASE, duration=1e-8), replace(BASE, ase_rate_at_source=0.0)],
    ids=["shorter-than-a-dead-time", "no-ase"],
)
def test_edge_runs(cfg):
    counts = simulate_monitor(cfg)
    if cfg.duration < cfg.dead_time:
        # no detector fires, and the estimator says so
        assert counts == MonitorCounts(0, 0, 0, 0, 0, 0, cfg.duration)
        with pytest.raises(EstimatorUndefinedError):
            estimate_fe(counts)
    else:
        # the pairs alone carry the estimate
        estimate, sigma = estimate_fe(counts)
        assert math.isfinite(estimate) and sigma > 0.0
        assert abs(estimate - cfg.f_e_true) < 4.0 * sigma


def _chi2_quantile(df: int, z: float) -> float:
    # Wilson-Hilferty: accurate to ~0.1% here
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


# the gate's source and channel at the base run's detector efficiencies
_GATE_SOURCE = replace(BASE, pair_rate=2.46e5, ase_rate_at_source=2.46e5, kappa=0.9, duration=2.0)


@pytest.mark.parametrize(
    "cfg",
    [
        _GATE_SOURCE,
        replace(_GATE_SOURCE, f_e_true=0.5),
        replace(_GATE_SOURCE, f_e_true=0.5, dead_time=5e-6, shift_offset=2e-5),
    ],
    ids=["f0", "f0.5", "f0.5-idler-saturated"],
)
def test_error_bar_matches_the_spread_over_trials(cfg):
    n = 80
    estimates, sigmas = [], []
    for k in range(n):
        estimate, sigma = estimate_fe(simulate_monitor(replace(cfg, rng_seed=500 + k)))
        estimates.append(estimate)
        sigmas.append(sigma)
    # (n - 1) s^2 / sigma^2 is chi-square with n - 1 degrees of freedom when
    # sigma is the true spread; two-sided 0.1% bounds
    statistic = (n - 1) * np.var(estimates, ddof=1) / np.mean(np.square(sigmas))
    assert _chi2_quantile(n - 1, -3.29) < statistic < _chi2_quantile(n - 1, 3.29)
