"""Injection estimator algebra and the Monte Carlo coincidence simulator."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import monitor_oracle
import oracle_utils as ou
from flqkd import monitor
from flqkd.errors import EstimatorUndefinedError, ValidationError
from flqkd.monitor import (
    MonitorCounts,
    SweepRow,
    dead_time_filter,
    estimate_fe,
    simulate_monitor,
    sweep_injection,
)
from monitor_oracle import NOMINAL_POINT, SATURATED_POINT, gap_tests_sequential, live_rate, read_only

# ten seconds of the unit tests' base run
BASE = replace(monitor_oracle.BASE, duration=10.0, rng_seed=90125)


def _counts(f, scale=1):
    # Alice: ratio 0.4 over 1000 accidentals; Bob: ratio (1 - f) * 0.4 over
    # 800, so the estimate is f exactly for f in quarters
    return MonitorCounts(
        *(scale * n for n in (50_000, 21_000, 1_000, 80_000, 800 + round((1 - f) * 32_000), 800)), 30.0
    )


def test_estimator_round_trip():
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        est, se = estimate_fe(_counts(f))
        assert math.isclose(est, f, rel_tol=0, abs_tol=1e-12)
        assert se > 0.0


@st.composite
def estimable_counts(draw):
    """Counts with an Alice excess, each arm's coincidences within its singles."""
    singles_a, singles_b = draw(st.integers(1, 10**9)), draw(st.integers(1, 10**9))
    coinc_a = draw(st.integers(1, singles_a))
    shifted_a = draw(st.integers(0, coinc_a - 1))
    coinc_b, shifted_b = draw(st.integers(0, singles_b)), draw(st.integers(0, singles_b))
    return MonitorCounts(singles_a, coinc_a, shifted_a, singles_b, coinc_b, shifted_b, 30.0)


@given(estimable_counts())
@example(MonitorCounts(10**9, 10**9 - 1, 0, 10**9, 10**9 - 1, 1, 30.0))
@example(MonitorCounts(10**9 - 7, 4 * 10**8 + 3, 10**5 + 1, 10**9 - 3, 4 * 10**8 + 1, 10**5, 30.0))
@example(MonitorCounts(1, 1, 0, 1, 1, 1, 30.0))
def test_estimator_equals_its_exact_rational_value(counts):
    """estimate_fe against the same formula in exact rationals, u = 2**-53.
    The int / int divisions and each float operation and sqrt round once,
    by <= u relative (** by <= 2u). To first order:

    - estimate: ra, rb and rb / ra give Q (1 + 3u), and 1 - Q rounds once,
      so |est - E| <= u (3.01 |Q| + |E|) with E = 1 - Q: an absolute bound
      that holds through the cancellation near f = 0, where Q ~ 1.
    - sigma^2: 1 - p for p = c / n is exact once p >= 1/2, but inherits
      p's rounding, u / 2 absolute, so its relative error is <= u (1 + rho)
      / 2, rho = c / (n - c) (c = n is exact). A ratio variance then carries
      <= u (rho + 5), the two terms u (rho + 10) and u (rho + 17), their sum
      u (rho + 18), and sqrt and squaring back 2u more. The bound u (rho +
      22) leaves half the rho term for the second-order terms.
    """
    estimate, sigma = estimate_fe(counts)
    fr = Fraction
    u = fr(1, 2**53)
    ra = fr(counts.coinc_a - counts.shifted_a, counts.singles_a)
    rb = fr(counts.coinc_b - counts.shifted_b, counts.singles_b)
    exact = 1 - rb / ra
    assert abs(fr(estimate) - exact) <= u * (fr(301, 100) * abs(rb / ra) + abs(exact))

    arms = [
        (counts.coinc_a, counts.shifted_a, counts.singles_a),
        (counts.coinc_b, counts.shifted_b, counts.singles_b),
    ]
    var_a, var_b = (sum(fr(c, n) * (1 - fr(c, n)) for c in (coinc, shifted)) / n for coinc, shifted, n in arms)
    variance = var_b / ra**2 + rb**2 * var_a / ra**4
    rho = max(fr(c, n - c) for coinc, shifted, n in arms for c in (coinc, shifted) if c < n)
    assert abs(fr(sigma) ** 2 - variance) <= u * (rho + 22) * variance


def test_estimator_error_halves_when_every_count_quadruples():
    # sigma depends on the counts alone; scaling them by a power of 2 scales
    # every rounding with them, so the halving is exact
    _, se1 = estimate_fe(_counts(0.5))
    _, se4 = estimate_fe(_counts(0.5, scale=4))
    assert se4 == se1 / 2.0


def test_estimator_undefined_cases():
    with pytest.raises(EstimatorUndefinedError):  # no Alice excess
        estimate_fe(MonitorCounts(50_000, 10, 10, 80_000, 50, 10, 30.0))
    with pytest.raises(EstimatorUndefinedError):  # a negative one
        estimate_fe(MonitorCounts(50_000, 10, 40, 80_000, 50, 10, 30.0))
    with pytest.raises(EstimatorUndefinedError):  # Bob's tap dark
        estimate_fe(MonitorCounts(50_000, 20_000, 100, 0, 0, 0, 30.0))


COUNT_FIELDS = [f.name for f in fields(MonitorCounts)][:6]


def test_counts_validation():
    valid = _counts(0.5)
    for field in COUNT_FIELDS[1:3]:
        with pytest.raises(ValidationError, match="^Alice coincidence count exceeds"):
            replace(valid, **{field: valid.singles_a + 1})
    for field in COUNT_FIELDS[4:6]:
        with pytest.raises(ValidationError, match="^Bob coincidence count exceeds"):
            replace(valid, **{field: valid.singles_b + 1})
    replace(valid, coinc_a=valid.singles_a, shifted_b=valid.singles_b)  # at the bound


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in COUNT_FIELDS for v in (math.nan, math.inf, 1.5, True, -1)]
    + [("duration", v) for v in (math.nan, math.inf, 0.0)],
    ids=lambda v: str(v).lower(),
)
def test_counts_refuse_invalid_values(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        replace(_counts(0.5), **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("field", [
    "pair_rate", "ase_rate_at_source", "kappa", "f_e_true", "tap_alice", "tap_bob",
    "det_eff_idler", "det_eff_alice", "det_eff_bob", "dead_time", "coinc_window",
    "shift_offset", "duration",
])
def test_sim_config_refuses_non_finite_values(field, value):
    # a NaN dead_time or coinc_window, or an infinite shift_offset, once passed
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        replace(BASE, **{field: value})


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
    n1, n2 = counts.coinc_b, counts.shifted_b
    assert n1 > 50 and n2 > 50
    z = abs(n1 - n2) / math.sqrt(n1 + n2)
    assert z < 4.0
    # and sit near the analytic accidental rate for a dead-time-limited idler
    r_live = live_rate(cfg.pair_rate * cfg.det_eff_idler, cfg.dead_time)
    p_hit = 1.0 - math.exp(-r_live * cfg.coinc_window)
    predicted = counts.singles_b * p_hit
    assert 0.7 * predicted < n1 < 1.3 * predicted


def test_saturation_warning_emitted():
    cfg = replace(BASE, pair_rate=3e7, duration=0.02, rng_seed=777)
    counts = simulate_monitor(cfg)
    assert counts.warnings
    assert any("saturation" in w for w in counts.warnings)
    assert not simulate_monitor(replace(BASE, duration=0.02)).warnings


# the benchmark's trials (perfbench/workloads.py) at one f_e_true and seed
_TRIAL = dict(f_e_true=0.5, duration=ou.bench_workloads()["TRIAL_SECONDS"], rng_seed=2024)
BENCH_SATURATED = replace(SATURATED_POINT, **_TRIAL)
BENCH_NOMINAL = replace(NOMINAL_POINT, **_TRIAL)
# a bright source: nearly every event is a tap event
TAP_DOMINATED = replace(BENCH_NOMINAL, ase_rate_at_source=5e9, f_e_true=0.0, duration=0.02)


def _traced_peak(run):
    """The peak of what run() allocates, in bytes, as tracemalloc counts it
    (numpy reports its array buffers there)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_trial_peak_memory(monkeypatch):
    # bounds 17% and 7% above the measured 25.7 B per drawn idler event and
    # 61.6 B per expected tap event (numpy 2.4); the tap-dominated run peaks
    # in _window_hulls and in the idler's first round alike
    for cfg in (BENCH_SATURATED, TAP_DOMINATED):  # first use, untraced
        simulate_monitor(replace(cfg, duration=cfg.duration / 20))
    drawn = []
    draw_idler = monitor._draw_idler

    def counted(*args):
        bulk = draw_idler(*args)
        drawn.append(bulk.size)
        return bulk

    monkeypatch.setattr(monitor, "_draw_idler", counted)
    peak = _traced_peak(lambda: simulate_monitor(BENCH_SATURATED))
    assert peak / drawn[-1] <= 30.0
    rates = monitor._category_rates(TAP_DOMINATED)
    tap_events = (sum(rates.values()) - rates["i_only"]) * TAP_DOMINATED.duration
    peak = _traced_peak(lambda: simulate_monitor(TAP_DOMINATED))
    assert peak / tap_events <= 66.0


def test_hull_and_count_peak_memory():
    # over the nominal tap streams, where every window is its own hull: one
    # _window_hulls call may hold its two edge arrays and one bool per
    # window (17 B measured), and one count_coincidences call the edges, the
    # partner lookup and two bools per trigger (26 B); one more window- or
    # trigger-sized float array breaks either bound
    cfg = BENCH_NOMINAL
    rng = np.random.default_rng(cfg.rng_seed)
    alice, bob, paired = monitor._tap_streams(rng, monitor._category_rates(cfg), cfg.dead_time, cfg.duration)
    args = ((alice, bob), 0.5 * cfg.coinc_window, cfg.shift_offset, cfg.duration)
    lo, hi = monitor._window_hulls(*args)  # first use, untraced
    windows = 2 * (alice.size + bob.size)
    assert lo.size == windows
    del lo, hi
    assert _traced_peak(lambda: monitor._window_hulls(*args)) / windows <= 18.0
    peak = _traced_peak(lambda: monitor.count_coincidences(alice, paired, 0.5 * cfg.coinc_window, 0.0))
    assert peak / alice.size <= 27.0


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


def test_sweep_spawns_each_rows_seeds_when_the_row_starts(monkeypatch):
    # the rows equal those of every trial's seed spawned before the first
    # trial runs, and no spawn asks for more than one row's trials
    base, values, trials = replace(BASE, duration=1.0), [0.0, 0.5, 1.0], 3
    children = np.random.SeedSequence(base.rng_seed).spawn(len(values) * trials)
    reference = []
    for j, f_e in enumerate(values):
        cfg = replace(base, f_e_true=f_e)
        rngs = [np.random.default_rng(c) for c in children[j * trials : (j + 1) * trials]]
        estimates = [estimate_fe(monitor._simulate(cfg, rng))[0] for rng in rngs]
        reference.append(SweepRow(f_e, float(np.mean(estimates)), float(np.std(estimates, ddof=1)), trials))
    asks = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n):
            asks.append(n)
            return super().spawn(n)

    monkeypatch.setattr(monitor.np.random, "SeedSequence", Recording)
    rows = sweep_injection(base, values, trials)
    monkeypatch.undo()
    assert rows == reference
    assert asks == [trials] * len(values)


def test_sweep_needs_two_trials():
    with pytest.raises(ValidationError, match="need at least 2 trials"):
        sweep_injection(BASE, [0.5], trials=1)
    for trials in (2.5, np.float64(3.0), "3", True):
        with pytest.raises(ValidationError, match="need an integer number of trials"):
            sweep_injection(BASE, [0.5], trials=trials)


def test_sweep_refuses_a_bad_row_before_its_first_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(monitor, "_simulate", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match=r"f_e_true must be in \[0,1\], got 2\.0"):
        sweep_injection(BASE, [0.5, 2.0], trials=2)
    assert calls == []


def test_sweep_takes_a_numpy_integer_trial_count():
    base = replace(BASE, duration=1.0)
    assert sweep_injection(base, [0.5], np.int64(2)) == sweep_injection(base, [0.5], 2)


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


_TIES = st.lists(st.sampled_from([-0.0, 0.0, 1.0, 1.5, 2.0]), max_size=40)


@given(_TIES, _TIES)
@example([], [])
@example([], [-0.0, 0.0])
@example([0.0, 1.0], [])
@example([-0.0, 0.0, 1.0], [0.0, -0.0, 1.0])
def test_merge_sorted_places_events_as_np_insert_does(bulk, add):
    # -0.0 and 0.0 tie but differ in their bits, so the hex strings show
    # which stream a tied event came from
    bulk = read_only(np.array(sorted(bulk), np.float64))
    add = read_only(np.array(sorted(add), np.float64))
    merged = monitor._merge_sorted(bulk, add)
    assert merged.dtype == np.float64
    assert _hex(merged) == _hex(np.insert(bulk, np.searchsorted(bulk, add), add))


@st.composite
def trigger_arms(draw):
    """Two sorted trigger arms in a run, a half window and a shift. Some
    triggers lie within a half window of 0, of the shift or of the run's
    end, so that some aligned and shifted windows are clipped by the run;
    the second arm may repeat the first. The arms are read-only."""
    duration = draw(st.sampled_from([1.0, 36.0, 1e3]))
    half_window = draw(st.sampled_from([5e-10, 1e-3, 0.25]))
    shift = draw(st.floats(0.0, 1.5 * duration))
    near = st.tuples(st.sampled_from([0.0, shift, duration]), st.floats(-half_window, half_window))

    def arm():
        inner = draw(st.lists(st.floats(0.0, duration), max_size=20))
        edges = [min(max(at + d, 0.0), duration) for at, d in draw(st.lists(near, max_size=6))]
        return read_only(np.sort(np.array(inner + edges, np.float64)))

    first = arm()
    second = read_only(first.copy()) if draw(st.booleans()) else arm()
    return (first, second), half_window, shift, duration


def _arms(*arms):
    return tuple(read_only(np.array(a, np.float64)) for a in arms)


@given(trigger_arms())
# a half window of 0.25 s in a 1-s run: windows of one arm overlap, touch
# (0.0 and 0.5) and reach past both ends of the run; the arms repeat
@example((_arms([0.0, 0.1, 0.5, 0.6, 1.0], [0.0, 0.1, 0.5, 0.6, 1.0]), 0.25, 0.3, 1.0))
@example((_arms([0.0, 0.5], [0.75]), 0.25, 0.0, 1.0))
@example((_arms([], []), 0.25, 0.5, 1.0))
def test_window_hulls_hold_every_counted_window(case):
    # the idler is drawn only on the hulls, so every window that
    # count_coincidences looks in must lie inside one hull, to the bit; the
    # hulls are sorted and disjoint, and each is the union of the windows
    # inside it: it starts where one starts, ends where one ends, and they
    # leave no gap in it
    arms, half_window, shift, duration = case
    lo, hi = monitor._window_hulls(arms, half_window, shift, duration)
    assert np.all(lo[1:] > hi[:-1])
    edges = [monitor._window_edges(t, half_window, offset) for t in arms for offset in (0.0, shift)]
    w_lo = np.maximum(np.concatenate([e[0] for e in edges]), 0.0)
    w_hi = np.minimum(np.concatenate([e[1] for e in edges]), duration)
    counted = w_hi > w_lo
    order = np.argsort(w_lo[counted], kind="stable")
    w_lo, w_hi = w_lo[counted][order], w_hi[counted][order]
    k = np.searchsorted(lo, w_lo, "right") - 1
    assert np.all(k >= 0)
    assert np.all(w_hi <= hi[k])
    # every hull holds a window; as the hulls are disjoint, the running
    # maximum of the ends is each hull's own from its first window on
    first = np.flatnonzero(np.diff(k, prepend=-1))
    last = np.flatnonzero(np.diff(k, append=lo.size))
    reach = np.maximum.accumulate(w_hi)
    assert np.array_equal(k[first], np.arange(lo.size))
    assert np.array_equal(w_lo[first], lo) and np.array_equal(reach[last], hi)
    inner = k[1:] == k[:-1]
    assert np.all(w_lo[1:][inner] <= reach[:-1][inner])


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


def _touching_spans(n, ulps):
    """n spans of ulps ulps at 1e6, each touching the next."""
    t0 = 1e6 + np.arange(n) * ulps * np.spacing(1e6)
    return t0, t0 + ulps * np.spacing(1e6)


@given(span_layouts(), st.sampled_from([0, 1, 40, 400]), st.integers(0, 2**32 - 1))
# more events than one chunk of the mapping, many rounding onto the next
# span's start, all still in order
@example(_touching_spans(4, 8), 3 * monitor._CHUNK, 7)
def test_draw_spans_equals_the_multi_interval_draw(layout, expected_events, seed):
    # one Poisson draw over the spans laid end to end, mapped back in order;
    # a time can round onto its span's end
    t0, t1 = layout
    spans = t0.tobytes(), t1.tobytes()
    total = np.cumsum(t1 - t0)[-1]
    rate = expected_events / total
    times, span = monitor._draw_spans(np.random.default_rng(seed), rate, t0, t1)
    assert times.size == np.random.default_rng(seed).poisson(rate * total)
    assert np.all(times[1:] >= times[:-1])
    assert np.all(t0[span] <= times) and np.all(times <= t1[span])
    assert np.array_equal(span, np.searchsorted(t0, times, "right") - 1)
    # the draw is mapped back in place, and the spans are only read
    assert (t0.tobytes(), t1.tobytes()) == spans


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
def test_draw_idler_keeps_in_every_hull_what_the_full_stream_keeps(layout, load, seed):
    # the rounds cut their draws from one whole-run idler-only stream; no
    # span is drawn twice, and with the partnered events merged in, the
    # dead-time filter keeps in every hull what it keeps in the whole stream.
    # The rounds read the hulls and partnered events and write none
    lo, hi, paired, dead_time = layout
    lo, hi, paired = read_only(lo), read_only(hi), read_only(paired)
    rng = np.random.default_rng(seed)
    rate = load / (dead_time or 1.0)
    whole = np.sort(rng.uniform(0.0, hi[-1], rng.poisson(rate * hi[-1])))
    spans = []

    def cut(_rng, _rate, t0, t1):
        spans.append((t0.copy(), t1.copy()))
        k = np.searchsorted(t0, whole, "right") - 1
        inside = (k >= 0) & (whole < t1[np.maximum(k, 0)])
        return whole[inside], k[inside]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monitor, "_draw_spans", cut)
        bulk = monitor._draw_idler(None, rate, lo, hi, paired, dead_time)
    t0, t1 = (np.concatenate(edge) for edge in zip(*spans))
    order = np.argsort(t0, kind="stable")
    assert np.all(t0[order][1:] >= t1[order][:-1])
    kept = dead_time_filter(monitor._merge_sorted(bulk, paired), dead_time)[0]
    full = dead_time_filter(np.sort(np.concatenate((whole, paired))), dead_time)[0]
    for a, b in zip(lo, hi):
        assert _hex(kept[(kept >= a) & (kept <= b)]) == _hex(full[(full >= a) & (full <= b)])


@st.composite
def gap_layouts(draw):
    """One round's gap-test inputs on a grid of 1/8, read-only: stretches
    with new <= old <= after, each span [new, next stretch's new) holding
    sorted times, some at or after old, and a dead time of 0 to 4 ticks, so
    that gaps of exactly one dead time are common."""
    new, old, after, times, label = [], [], [], [], []
    t = draw(st.sampled_from([0, 8000]))
    for k in range(draw(st.integers(1, 6))):
        new.append(t)
        old.append(t + draw(st.integers(0, 6)))
        after.append(old[-1] + draw(st.integers(0, 3)))
        span = sorted(draw(st.lists(st.integers(t, after[-1] + 2), max_size=8)))
        times += span
        label += [k] * len(span)
        t = max([after[-1]] + span) + draw(st.integers(1, 3))
    times, new, old, after = (read_only(np.array(v, np.float64) / 8.0) for v in (times, new, old, after))
    return times, read_only(np.array(label, np.int32)), new, old, after, draw(st.integers(0, 4)) / 8.0


def _one_stretch(times, old, after):
    """The gap-test inputs of one stretch from new = 0, dead time 1/4."""
    times = np.array(times, np.float64)
    arrays = times, np.zeros(times.size, np.int32), np.zeros(1), np.array([old]), np.array([after])
    return *(read_only(a) for a in arrays), 0.25


def _chunk_crossing_round():
    """_CHUNK stretches 1 apart, each with three times 1/8 apart before old
    = new + 1/2, after = new + 9/16 and dead time 1/4: every gap is short, so
    no stretch settles. Of the 3 * _CHUNK times, the first chunk ends on a
    stretch's second time and the second on a stretch's first."""
    new = np.arange(monitor._CHUNK, dtype=np.float64)
    times = (new[:, None] + np.array([0.125, 0.25, 0.375])).ravel()
    label = np.repeat(np.arange(new.size, dtype=np.int32), 3)
    return *(read_only(a) for a in (times, label, new, new + 0.5, new + 0.5625)), 0.25


@given(gap_layouts())
# a gap of exactly one dead time frees the detector (the head rule's >=):
# from new to a stream's first time, between two times, from its last time
# to after, and from new to after in an empty stream
@example(_one_stretch([0.25], 0.375, 0.375))
@example(_one_stretch([0.125, 0.375], 0.5, 0.5))
@example(_one_stretch([0.125], 0.375, 0.375))
@example(_one_stretch([], 0.25, 0.25))
@example(_chunk_crossing_round())
def test_gap_tests_equal_the_sequential_rule(case):
    done, first = monitor._gap_tests(*case)
    expected_done, expected_first = gap_tests_sequential(*case)
    assert done.tolist() == expected_done.tolist()
    assert _hex(first) == _hex(expected_first)


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
    assert times.tolist() == [t0[0] + sample[0], t0[1], (sample[2] - 8 * ulp) + t0[1]]
    assert span.tolist() == [0, 1, 1]


def test_draw_spans_sorts_a_time_that_rounds_past_the_next_spans_start():
    # three touching spans [0, a), [a, b), [b, b + 1). b - a falls halfway
    # between two floats and rounds up, and a plus it, b + ulp/2, rounds up
    # to b + ulp; so does the running length a + (b - a). The last sample of
    # [a, b) then maps to b + ulp and moves to [b, b + 1), whose first
    # sample maps to b, so the mapped times come out of order
    a, b = float.fromhex("0x1.000000000000cp-1"), float.fromhex("0x1.4000000000001p+2")
    t0, t1 = np.array([0.0, a, b]), np.array([a, b, b + 1.0])
    end = a + (b - a)
    times, span = monitor._draw_spans(_FixedDraw([np.nextafter(end, 0.0), end]), 1.0, t0, t1)
    assert times.tolist() == [b, np.nextafter(b, np.inf)]
    assert span.tolist() == [2, 2]
