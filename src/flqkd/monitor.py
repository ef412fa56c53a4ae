"""Calibration-free intrusion estimator and its Monte Carlo validator.

Alice's terminal taps a small fraction of her outgoing signal+noise light and
coincidence-counts it against the locally detected idler of an entangled-pair
source; Bob taps the light entering his terminal and does the same. The
injected fraction follows from the two background-subtracted, singles-
normalized coincidence ratios alone, so detector efficiencies, channel loss,
and noise levels cancel.

The simulator generates the photon streams as independent category-thinned
Poisson processes (the thinning theorem makes this exactly equivalent to
per-photon fate sampling), shares timestamps between a detected idler and its
detected partner, applies non-paralyzable dead time per detector, and counts
time-aligned and time-shifted coincidences. An intruder replaces a fraction
f_e_true of the flux entering Bob's terminal with statistically independent
light of equal rate.

Nearly all idler events fall where no coincidence window looks, so the
simulator draws the tap-side categories in full, filters the two tap
streams, and draws the idler-only category just on stretches of time around
the aligned and shifted windows of the live triggers. This is exact in
distribution:

- A Poisson process restricted to disjoint intervals gives independent
  Poisson processes on them, so drawing each stretch once, and no stretch
  twice, gives the law of the full stream on their union. Partnered idler
  events come from the tap draws, and all of them join the drawn stream.
- Whether an event is kept depends on the detector's past. Call an event a
  cluster head when it comes at least one dead time after its predecessor,
  times[i] >= times[i-1] + dead_time, in the float addition that every
  dead-time test here makes. A head is kept whatever came before it: the
  last kept event before it lies at or before times[i-1], and float
  addition is monotone, so the detector is free again by times[i-1] +
  dead_time <= times[i]. A stream's first event is a head too. Between two
  heads the events form a cluster of short gaps, and the kept ones follow
  from the cluster's head alone: the next kept event is the first one at or
  after the last kept time plus dead_time, a chase that cannot pass the next
  head. So dead_time_filter chases all clusters at once, one array step per
  kept event of the longest chain, and from a head on the greedy filter
  keeps the same events in any stream that agrees from there. So each
  stretch reaches back from its window, doubling its reach per round, until
  its events show a head at or before the first event the window needs. Its
  first event counts as a head when it lies a dead time after the stretch's
  start, since its true predecessor lies before that start. A stretch that
  would reach the previous one (or the start of the run) stops there and
  continues it.
- A round tests the span [new, old) that a stretch adds in front of what
  it tested before, together with the end of that earlier test: its earliest
  event found so far, or its window's start. A stretch whose span holds no
  drawn or partnered event has a single gap there, from new to that end, so
  one comparison decides it. An empty span is at least two dead times wide
  unless the stretch has met the previous one, so such a stretch always
  settles. A round draws all its spans at once, laid end to end, and each
  event keeps the span it was drawn for (one that rounds onto the next
  span's start, or one ulp past it where touching spans' length rounds up
  at a tie, moves to that span, and a re-sort puts such a time back in
  time order). The spans do not overlap, so, once re-sorted, the events of
  each stretch form one run of the round's events, in time order, led by
  those before old. One chunked pass over the round's events tests
  each such event against its successor in the stretch's stream (the next
  event, or the end of the earlier test) and a stream's first event against
  new. The few stretches whose span holds partnered events are tested again
  on their events with those merged in. Only the stretches still open carry
  state into the next round.
- The drawn sample is a subset of the full stream, and in any subset that
  holds it a stretch's head is a head too: its predecessor there is the
  same event or an earlier one. A partnered event outside every stretch is
  a real idler event that lies in no window, and since each stretch's head
  is kept whatever comes before it, such events change no kept event inside
  a stretch. One dead_time_filter call over the sample therefore keeps,
  from every head on, exactly the events the full stream keeps, and every
  window lies after its stretch's head.

A run is one pass over [0, duration], so its peak memory grows with the
duration: about 0.072 MB per simulated second at the acceptance tests'
operating point, and 0.15 MB/s with the idler near saturation (traced, for
36- and 72-s runs). A round holds its draw but no copy of it, and the
hulls go once the idler is drawn. Statistics come from more trials
(sweep_injection), not from longer ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import EstimatorUndefinedError, ValidationError, is_integer, require_finite


@dataclass(frozen=True)
class MonitorCounts:
    """What both monitor arms counted over one run: each tap's post-dead-time
    singles, and its triggers with an idler event in the time-aligned window
    (coinc_*) and in the window shifted by the accidental offset (shifted_*).
    The rates s_a ... c_ib_shift, in counts/s, are the counts over duration.
    """

    singles_a: int
    coinc_a: int
    shifted_a: int
    singles_b: int
    coinc_b: int
    shifted_b: int
    duration: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require_finite(self, ("duration",))
        if self.duration <= 0:
            raise ValidationError(f"duration must be positive, got {self.duration!r}")
        for f in fields(self)[:6]:
            n = getattr(self, f.name)
            if not is_integer(n) or n < 0:
                raise ValidationError(f"{f.name} must be an integer >= 0, got {n!r}")
        if max(self.coinc_a, self.shifted_a) > self.singles_a:
            raise ValidationError("Alice coincidence count exceeds singles count")
        if max(self.coinc_b, self.shifted_b) > self.singles_b:
            raise ValidationError("Bob coincidence count exceeds singles count")

    s_a = property(lambda self: self.singles_a / self.duration)
    c_ia = property(lambda self: self.coinc_a / self.duration)
    c_ia_shift = property(lambda self: self.shifted_a / self.duration)
    s_b = property(lambda self: self.singles_b / self.duration)
    c_ib = property(lambda self: self.coinc_b / self.duration)
    c_ib_shift = property(lambda self: self.shifted_b / self.duration)


# The expected events of all categories bound those a run draws (the tap
# streams in full, the idler near the windows only). Measured peak memory
# (tracemalloc, runs of up to 72 s and 0.2 s) is ~0.31 B per expected event
# at the acceptance point and ~62 B per tap event, where _window_hulls and
# the idler's first round peak alike, so 1e8 tap events may ask for
# ~6.2 GB; numpy's Poisson draw fails only near 1e19. It also bounds a run's
# windows (two per trigger) to ~2e8, so a stretch's index fits an int32.
MAX_RUN_EVENTS = 1e8

# elements per step of the chunked passes over a round's events and
# stretches: 64 KB of float64, so that their temporaries stay small next to
# the arrays they read and below glibc's 128 KiB mmap threshold
_CHUNK = 1 << 13


@dataclass(frozen=True)
class MonitorSimConfig:
    """Source, channel, and detection parameters for one simulated run."""

    pair_rate: float
    ase_rate_at_source: float
    kappa: float
    f_e_true: float
    tap_alice: float
    tap_bob: float
    det_eff_idler: float
    det_eff_alice: float
    det_eff_bob: float
    dead_time: float
    coinc_window: float
    shift_offset: float
    duration: float
    rng_seed: int

    def __post_init__(self) -> None:
        require_finite(self, (f.name for f in fields(self) if f.name != "rng_seed"))
        if self.pair_rate < 0 or self.ase_rate_at_source < 0:
            raise ValidationError("rates must be >= 0")
        if not 0.0 < self.kappa < 1.0:
            raise ValidationError(f"kappa must be in (0,1), got {self.kappa!r}")
        if not 0.0 <= self.f_e_true <= 1.0:
            raise ValidationError(f"f_e_true must be in [0,1], got {self.f_e_true!r}")
        for name, tap in (("tap_alice", self.tap_alice), ("tap_bob", self.tap_bob)):
            if not 0.0 < tap <= 1e-3:
                raise ValidationError(f"{name} must be in (0, 0.001], got {tap!r}")
        for name, eff in (
            ("det_eff_idler", self.det_eff_idler),
            ("det_eff_alice", self.det_eff_alice),
            ("det_eff_bob", self.det_eff_bob),
        ):
            if not 0.0 < eff <= 1.0:
                raise ValidationError(f"{name} must be in (0,1], got {eff!r}")
        if self.dead_time < 0:
            raise ValidationError(f"dead_time must be >= 0, got {self.dead_time!r}")
        if self.coinc_window <= 0:
            raise ValidationError(f"coinc_window must be positive, got {self.coinc_window!r}")
        if self.shift_offset < 100.0 * self.coinc_window * (1.0 - 1e-12):
            raise ValidationError("shift_offset must be >= 100 * coinc_window")
        if self.duration <= 0:
            raise ValidationError(f"duration must be positive, got {self.duration!r}")
        seed = self.rng_seed
        if not is_integer(seed) or not 0 <= seed < 2**64:
            raise ValidationError(f"rng_seed must be an integer in [0, 2**64), got {seed!r}")
        events = sum(_category_rates(self).values()) * self.duration
        if not events <= MAX_RUN_EVENTS:
            shown = f"{events:.3g}"
            if shown == f"{MAX_RUN_EVENTS:.3g}":  # too near the cap for 3 digits to show the excess
                shown = f"{events:.12g}"
            raise ValidationError(f"run expects {shown} events, over the {MAX_RUN_EVENTS:.0e} allowed")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated estimator statistics at one injected fraction."""

    f_e_true: float
    mean_estimate: float
    std_dev: float
    trials: int
    warnings: tuple[str, ...] = ()


def estimate_fe(counts: MonitorCounts) -> tuple[float, float]:
    """Injected-fraction estimate and its propagated standard error, from
    the counts alone: 1 - ratio_b / ratio_a, each arm's ratio (coinc -
    shifted) / singles. The error bar takes the singles as given and each
    trigger's aligned and shifted hits as Bernoulli trials, so a ratio has
    variance (p(1-p) + q(1-q)) / singles, p and q its coinc and shifted over
    singles, and propagates the two ratios to first order. (Treating the six
    counts as independent Poisson counts overstates the spread, 1.6x at f_e =
    0 at the acceptance operating point.) Negative estimates are returned
    as-is; they are expected noise around zero.
    """
    excess_a = counts.coinc_a - counts.shifted_a
    if excess_a <= 0:
        raise EstimatorUndefinedError(
            "Alice tap shows no excess coincidences; reference arm is dark or unpaired"
        )
    if counts.singles_b == 0:
        raise EstimatorUndefinedError("Bob tap recorded no counts")
    ratio_a = excess_a / counts.singles_a
    ratio_b = (counts.coinc_b - counts.shifted_b) / counts.singles_b
    estimate = 1.0 - ratio_b / ratio_a

    def ratio_variance(coinc: int, shifted: int, singles: int) -> float:
        p, q = coinc / singles, shifted / singles
        return (p * (1.0 - p) + q * (1.0 - q)) / singles

    var_ratio_a = ratio_variance(counts.coinc_a, counts.shifted_a, counts.singles_a)
    var_ratio_b = ratio_variance(counts.coinc_b, counts.shifted_b, counts.singles_b)
    var_estimate = var_ratio_b / ratio_a**2 + ratio_b**2 * var_ratio_a / ratio_a**4
    return float(estimate), float(math.sqrt(var_estimate))


def _detector_loads(cfg: MonitorSimConfig) -> dict[str, float]:
    # post-efficiency incident rate per detector, before dead time
    rates = _category_rates(cfg)
    return {
        detector: sum(rates[name] for name in categories)
        for detector, categories in _DETECTOR_CATEGORIES.items()
    }


def _saturation_warnings(cfg: MonitorSimConfig) -> tuple[str, ...]:
    if cfg.dead_time <= 0:
        return ()
    limit = 0.9 / cfg.dead_time
    return tuple(
        f"{name} detector near saturation: {rate:.3g}/s vs limit {limit:.3g}/s"
        for name, rate in _detector_loads(cfg).items()
        if rate > limit
    )


def _category_rates(cfg: MonitorSimConfig) -> dict[str, float]:
    """Rates of the independent Poisson categories the detector streams are
    built from (Poisson marking of the pair and noise processes). Their order
    is the draw order: _tap_streams draws every category but i_only in it,
    so that a seed fixes the run."""
    eff_i = cfg.det_eff_idler
    p_alice = cfg.tap_alice * cfg.det_eff_alice
    # an intruder replaces a fraction f_e_true of the flux entering Bob's
    # terminal, so Alice's surviving light carries the complementary factor
    p_bob = (1.0 - cfg.tap_alice) * cfg.kappa * (1.0 - cfg.f_e_true) * cfg.tap_bob * cfg.det_eff_bob
    source = cfg.pair_rate + cfg.ase_rate_at_source
    return {
        # idler detected, partner not detected at either tap
        "i_only": cfg.pair_rate * eff_i * (1.0 - p_alice - p_bob),
        # idler and partner both detected: one timestamp in two streams
        "i_alice": cfg.pair_rate * eff_i * p_alice,
        "i_bob": cfg.pair_rate * eff_i * p_bob,
        # partner detected, idler lost
        "a_only": cfg.pair_rate * (1.0 - eff_i) * p_alice,
        "b_only": cfg.pair_rate * (1.0 - eff_i) * p_bob,
        "ase_a": cfg.ase_rate_at_source * p_alice,
        "ase_b": cfg.ase_rate_at_source * p_bob,
        "eve": cfg.f_e_true * (1.0 - cfg.tap_alice) * cfg.kappa * source * cfg.tap_bob * cfg.det_eff_bob,
    }


# the categories each detector's stream is made of
_DETECTOR_CATEGORIES = {
    "idler": ("i_only", "i_alice", "i_bob"),
    "alice_tap": ("i_alice", "a_only", "ase_a"),
    "bob_tap": ("i_bob", "b_only", "ase_b", "eve"),
}


def _poisson_times(rng: np.random.Generator, rate: float, length: float) -> np.ndarray:
    """Sorted event times of a Poisson process of the given rate on [0, length)."""
    if rate <= 0.0:
        return np.empty(0, np.float64)
    times = rng.uniform(0.0, length, rng.poisson(rate * length))
    times.sort()
    return times


def _draw_spans(rng, rate, t0, t1):
    """Sorted event times of a Poisson process of the given rate on the
    disjoint, nonempty list of spans [t0[k], t1[k]], ordered by start, and
    the span of each time: np.searchsorted(t0, times, "right") - 1; a time
    can round onto its own span's end. Besides the two results, it holds
    the spans' running lengths, and one chunk while it maps the draw back."""
    # one draw over the spans laid end to end, then mapped back; ends[k] is
    # where span k starts in the draw
    ends = np.empty(t0.size + 1)
    ends[0] = 0.0
    np.cumsum(np.subtract(t1, t0, out=ends[1:]), out=ends[1:])
    times = _poisson_times(rng, rate, ends[-1])
    span = _rank(ends[1:], times)
    last = t0.size - 1
    np.minimum(span, last, out=span)
    # in order and in their spans already, but for rounding where two spans
    # touch or lie an ulp apart: a time can round onto the next span's start,
    # or, where touching spans' length rounds up at a tie, one ulp past it,
    # out of order with that span's first times until the re-sort below
    # (never below its own span's start, as u - ends[k] >= 0 for u >= ends[k])
    buf = np.empty(min(times.size, _CHUNK))
    for a in range(0, times.size, _CHUNK):
        t, k = times[a : a + _CHUNK], span[a : a + _CHUNK]
        gathered = buf[: k.size]
        t -= ends.take(k, out=gathered)
        t += t0.take(k, out=gathered)
        moved = np.flatnonzero((t >= t0.take(k + 1, mode="clip", out=gathered)) & (k < last))
        k[moved] = np.searchsorted(t0, t[moved], "right") - 1
    del ends
    if np.any(times[1:] < times[:-1]):
        order = np.argsort(times, kind="stable")
        times, span = times[order], span[order]
    return times, span


def _rank(edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, points, "right") for sorted edges and points,
    searching the shorter array into the longer."""
    if points.size <= edges.size:
        return np.searchsorted(edges, points, "right")
    # point i ranks above the edges that at most i points lie before
    rank = np.bincount(np.searchsorted(points, edges, "left"), minlength=points.size + 1)
    return np.cumsum(rank, out=rank)[: points.size]


def _merge_sorted(bulk: np.ndarray, add: np.ndarray) -> np.ndarray:
    """The sorted union of bulk, sorted runs laid end to end, and the sorted
    add, in a new array: one stable sort (a timsort, which merges the runs
    in linear time). add goes first, so a tied add event lands before the
    bulk events it ties, where np.insert(bulk, np.searchsorted(bulk, add),
    add) puts it when bulk is sorted."""
    merged = np.concatenate((add, bulk))
    merged.sort(kind="stable")
    return merged


def dead_time_filter(times: np.ndarray, dead_time: float) -> tuple[np.ndarray, float]:
    """The events of sorted times that a non-paralyzable detector keeps, and
    the time it is free again after the last (-inf when it keeps none).
    Every cluster of short gaps is chased from its head at once (module
    docstring)."""
    n = times.size
    if n == 0:
        return times.copy(), -math.inf
    # waiting[i]: event i sits in a cluster and is not known to be kept yet;
    # the False at n ends every chase that runs off the end of the stream
    waiting = np.zeros(n + 1, bool)
    for a in range(1, n, _CHUNK):
        t = times[a : a + _CHUNK]
        np.less(t, times[a - 1 : a - 1 + t.size] + dead_time, out=waiting[a : a + t.size])
    cur = np.flatnonzero(waiting[1:] & ~waiting[:-1])
    while cur.size:
        cur = times.searchsorted(times[cur] + dead_time)
        # a chase stops on a kept event: the next head, or an earlier one
        # when times[cur] + dead_time rounds to times[cur]
        cur = cur[waiting[cur]]
        waiting[cur] = False
    kept = times[~waiting[:-1]]
    return kept, kept[-1] + dead_time


def _window_edges(triggers, half_window, offset):
    """Each trigger's window [lo, hi], (t - offset) -/+ half_window: the
    arithmetic of both the counts and the hulls the idler is drawn on. Two
    arrays: lo's holds t - offset until hi is taken from it."""
    lo = np.subtract(triggers, offset)
    hi = np.add(lo, half_window)
    return np.subtract(lo, half_window, out=lo), hi


def count_coincidences(triggers, partners, half_window, offset) -> int:
    """Triggers with at least one of the sorted partners in their window."""
    if triggers.size == 0 or partners.size == 0:
        return 0
    lo, hi = _window_edges(triggers, half_window, offset)
    # the first partner at or after the window's start scores iff it lies at
    # or before the window's end
    first = np.searchsorted(partners, lo, "left")
    hit = np.less_equal(partners.take(first, mode="clip", out=lo), hi)
    hit &= first < partners.size
    return int(np.count_nonzero(hit))


def simulate_monitor(config: MonitorSimConfig) -> MonitorCounts:
    """Run one seeded end-to-end simulation and return its counts."""
    rng = np.random.default_rng(np.random.SeedSequence(int(config.rng_seed)))
    return _simulate(config, rng)


def _simulate(cfg: MonitorSimConfig, rng: np.random.Generator) -> MonitorCounts:
    """One pass over [0, duration]: the tap streams in full, the idler stream
    on the stretches drawn around the coincidence windows (module
    docstring)."""
    rates = _category_rates(cfg)
    tau, half_window, shift = cfg.dead_time, 0.5 * cfg.coinc_window, cfg.shift_offset
    alice_live, bob_live, paired = _tap_streams(rng, rates, tau, cfg.duration)
    lo, hi = _window_hulls((alice_live, bob_live), half_window, shift, cfg.duration)
    bulk = _draw_idler(rng, rates["i_only"], lo, hi, paired, tau)
    # the hulls and then the draw go once nothing reads them
    del lo, hi
    idler = _merge_sorted(bulk, paired)
    del bulk
    idler_live, _ = dead_time_filter(idler, tau)
    return MonitorCounts(
        singles_a=alice_live.size,
        coinc_a=count_coincidences(alice_live, idler_live, half_window, 0.0),
        shifted_a=count_coincidences(alice_live, idler_live, half_window, shift),
        singles_b=bob_live.size,
        coinc_b=count_coincidences(bob_live, idler_live, half_window, 0.0),
        shifted_b=count_coincidences(bob_live, idler_live, half_window, shift),
        duration=cfg.duration,
        warnings=_saturation_warnings(cfg),
    )


def _tap_streams(rng, rates, dead_time, duration):
    """Both taps' live streams and the idler's events drawn so far (those
    whose partner was detected too), from the tap-side categories drawn in
    full, in the order of rates; the rest of the idler stream (i_only) is
    drawn only around the coincidence windows. The categories' draws are
    freed on return."""
    drawn = {k: _poisson_times(rng, rate, duration) for k, rate in rates.items() if k != "i_only"}

    def stream(detector):
        return np.sort(np.concatenate([drawn[k] for k in _DETECTOR_CATEGORIES[detector] if k != "i_only"]))

    alice_live, _ = dead_time_filter(stream("alice_tap"), dead_time)
    bob_live, _ = dead_time_filter(stream("bob_tap"), dead_time)
    return alice_live, bob_live, stream("idler")


def _window_hulls(arms, half_window, shift, duration):
    """Sorted, disjoint hulls of the aligned and shifted windows of each
    arm's triggers, clipped to the run (empty ones go). The windows share one
    width, so with their centers sorted their starts and ends are sorted, and
    a hull starts where a window starts after the previous one ends.

    It holds two window-sized float arrays and one bool: the centers are
    made in one buffer, sorted there, and give the starts to a new array and
    the ends to their own buffer. Windows are compressed only when one is
    clipped away or two merge; on both benchmark workloads each window is
    its own hull, and the two edge arrays are the hulls. A function of its
    own, so that its temporaries are freed before the rounds."""
    # the aligned windows' centers, then the shifted ones'
    centers = np.concatenate(tuple(arms) * 2)
    centers[centers.size // 2 :] -= shift
    centers.sort()
    # the edges of _window_edges(centers, half_window, 0.0), to the bit:
    # centers - 0.0 is centers
    lo = np.subtract(centers, half_window)
    hi = np.add(centers, half_window, out=centers)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, duration, out=hi)
    keep = hi > lo
    if not keep.all():
        lo = lo[keep]
        hi = hi[keep]
    # a hull starts at each window that starts after the previous one ends,
    # and ends where the next one starts; keep's buffer takes the starts
    start = keep[: lo.size]
    start[:1] = True
    np.greater(lo[1:], hi[:-1], out=start[1:])
    if start.all():
        return lo, hi
    lo = lo[start]
    return lo, hi[np.append(start[1:], True)]


def _draw_idler(rng, rate, lo, hi, paired, dead_time):
    """Idler-only events on stretches around the window hulls [lo, hi]: each
    round's sorted draw, laid end to end in round order, for _merge_sorted to
    put in time order.

    Each stretch reaches back from its window, twice as far each round,
    until the stream it holds shows a gap of at least dead_time before its
    first needed event, or until it meets the previous stretch (or the start
    of the run), which it then continues. paired holds the sorted partnered
    idler events, part of the stream. Besides its draw, a round holds its
    events' stretches (int32) and, per stretch, its gap test's result and
    earliest event, so no round copies its draw; the hulls are read, never
    written (module docstring).
    """
    # a partnered event's hull is the first that ends after it. One in front
    # of its hull, between the previous hull's end and lo[k], waits in the
    # pool until a round's span reaches it or its stretch settles
    pool_at = np.searchsorted(hi, paired, "right")
    pool = np.flatnonzero(pool_at < lo.size)
    pool = pool[paired[pool] < lo[pool_at[pool]]]
    pool_at = pool_at[pool]
    # lo, bound and after hold the open stretches only. A stretch's bound is
    # where it meets the previous one: the previous hull's end, or 0.0, the
    # run's start, for the first hull. It is kept as the first open
    # stretch's, head_bound, and the others', bound, so that round one reads
    # them from hi. old is where each stretch's tested stream starts, top
    # where its next span ends, and after where its gap test ends: its
    # earliest event found so far, or its window's start
    head_bound, bound = 0.0, hi[:-1]
    old = after = lo
    top = hi
    reach = 2.0 * dead_time
    drawn = []
    while lo.size:
        new = lo - reach
        np.maximum(head_bound, new[:1], out=new[:1])
        np.maximum(bound, new[1:], out=new[1:])
        events, label = _draw_spans(rng, rate, new, top)
        drawn.append(events)
        label = label.astype(np.int32)
        done, first = _gap_tests(events, label, new, old, after, dead_time)
        del label
        near = paired[pool] >= new[pool_at]
        if near.any():
            # the stretches whose span holds partnered events are tested
            # again on their events with those merged in
            at = pool_at[near]
            at = at[np.diff(at, prepend=-1) != 0]
            spans = zip(events.searchsorted(new[at]).tolist(), events.searchsorted(old[at]).tolist())
            merged = np.sort(np.concatenate([paired[pool[near]]] + [events[s:e] for s, e in spans]))
            label = np.searchsorted(new[at], merged, "right") - 1
            done[at], first[at] = _gap_tests(merged, label, new[at], old[at], after[at], dead_time)
        done[:1] |= new[:1] <= head_bound
        done[1:] |= new[1:] <= bound
        rest = np.flatnonzero(~done)
        keep = ~near & ~done[pool_at]
        # positions among the next round's open stretches
        pool, pool_at = pool[keep], np.searchsorted(rest, pool_at[keep])
        if rest.size and rest[0]:
            head_bound = bound[rest[0] - 1]
        lo, bound, after = lo[rest], bound[rest[1:] - 1], first[rest]
        old = top = new[rest]
        reach *= 2.0
    return np.concatenate(drawn) if drawn else np.empty(0, np.float64)


def _gap_tests(times, label, new, old, after, dead_time):
    """Whether each stretch k shows a gap of at least dead_time in its
    stream in [new[k], old[k]), and its earliest event there (after[k] when
    it holds none). times is sorted, and label[i] is the stretch whose span
    [new, next stretch's new) holds times[i]; a stretch's stream is its
    times before old, and its gaps run from new to the first (whose true
    predecessor lies before new), between the times, and from the last to
    after."""
    # a stretch whose stream is empty has one gap, from new to after
    done = np.empty(new.size, bool)
    for a in range(0, new.size, _CHUNK):
        np.greater_equal(after[a : a + _CHUNK], new[a : a + _CHUNK] + dead_time, out=done[a : a + _CHUNK])
    first = after.copy()
    for a in range(0, times.size, _CHUNK):
        t, k = times[a : a + _CHUNK], label[a : a + _CHUNK]
        end = old.take(k)
        stream = t < end
        reach = t + dead_time
        # follows[i]: the next time is in the same stretch's stream, so the
        # gap from t[i] ends there; otherwise it ends at after
        t_next, k_next = times[a + 1 : a + 1 + t.size], label[a + 1 : a + 1 + t.size]
        m = t_next.size
        follows = np.zeros(t.size, bool)
        np.equal(k_next, k[:m], out=follows[:m])
        follows[:m] &= t_next < end[:m]
        gap = follows[:m] & (t_next >= reach[:m])
        last = stream & ~follows
        k_last = k[last]
        # a stream's first time follows new, and its stretch is busy, so this
        # test replaces the one from new to after
        prev = label[a - 1 : a - 1 + t.size] if a else np.concatenate(([-1], k[:-1]))
        lead = stream & (k != prev)
        k_lead, t_lead = k[lead], t[lead]
        done[k_lead] = t_lead >= new.take(k_lead) + dead_time
        first[k_lead] = t_lead
        done[k[:m][gap]] = True
        done[k_last[after.take(k_last) >= reach[last]]] = True
    return done, first


def sweep_injection(
    base: MonitorSimConfig, f_e_values, trials: int
) -> list[SweepRow]:
    """Repeat the simulation at each injected fraction with spawned seeds.

    Returns one row per value with the sample mean and standard deviation
    (ddof=1) of the per-trial estimates, in the order given. A row spawns its
    trials' seeds when it starts: the seeds one spawn of them all would give.
    Every row's config is built, and so checked, before the first trial runs.
    """
    if not is_integer(trials):
        raise ValidationError(f"need an integer number of trials, got {trials!r}")
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials!r}")
    cfgs = [replace(base, f_e_true=float(v)) for v in f_e_values]
    root = np.random.SeedSequence(int(base.rng_seed))
    rows = []
    for cfg in cfgs:
        estimates = [
            estimate_fe(_simulate(cfg, np.random.default_rng(child)))[0]
            for child in root.spawn(trials)
        ]
        rows.append(
            SweepRow(
                f_e_true=cfg.f_e_true,
                mean_estimate=float(np.mean(estimates)),
                std_dev=float(np.std(estimates, ddof=1)),
                trials=trials,
                warnings=_saturation_warnings(cfg),
            )
        )
    return rows
