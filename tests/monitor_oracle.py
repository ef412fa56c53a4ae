"""Reference engines and kernels for the monitor simulator.

The full-stream simulator draws every idler event of the run, filters each
detector's whole stream, and counts coincidences with count_coincidences
directly. The library draws the idler stream only around the coincidence
windows; both must give the same distribution of the six counts.

frozen_draw_idler and frozen_count_coincidences are an earlier form of the
library's idler rounds and coincidence count: each round labels the whole
partnered pool and argsorts the points of every open stretch, and each
trigger takes two searches. Run in place of the library's, they must give
the same counts, field for field, on every seed. frozen_draw_idler returns
only its drawn events, as the library's does; the engine merges every
partnered event itself.
frozen_poisson_times is the earlier draw on a list of intervals, which the
library's _draw_spans must match time for time. frozen_window_hulls builds
the hulls the idler is drawn on from an argsort of all window starts and a
running maximum of their ends; the library's _window_hulls, which sorts the
window centers, must give float-identical hulls.

dead_time_sequential and count_coincidences_sequential are the detector
rules written as one loop over the events; the library's vectorized
dead_time_filter and count_coincidences must give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from flqkd import monitor
from flqkd.monitor import count_coincidences, dead_time_filter


def full_stream_counts(cfg: monitor.MonitorSimConfig, draws) -> monitor.MonitorCounts:
    """The counts of whole category streams (category -> times; a missing
    category is empty), with the run's warnings."""

    def live(*names):
        stream = np.sort(np.concatenate([np.asarray(draws.get(n, ()), np.float64) for n in names]))
        return dead_time_filter(stream, cfg.dead_time)[0]

    idler = live("i_only", "i_alice", "i_bob")
    half_window = 0.5 * cfg.coinc_window
    counts = []
    for taps in (live("i_alice", "a_only", "ase_a"), live("i_bob", "b_only", "ase_b", "eve")):
        counts += [
            taps.size,
            count_coincidences(taps, idler, half_window, 0.0),
            count_coincidences(taps, idler, half_window, cfg.shift_offset),
        ]
    return monitor.MonitorCounts(*counts, cfg.duration, monitor._saturation_warnings(cfg))


def simulate_full_stream(cfg: monitor.MonitorSimConfig) -> monitor.MonitorCounts:
    """The counts of one seeded run."""
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.rng_seed)))
    draws = {
        name: monitor._poisson_times(rng, rate, cfg.duration)
        for name, rate in monitor._category_rates(cfg).items()
    }
    return full_stream_counts(cfg, draws)


def frozen_poisson_times(rng, rate, t0, t1):
    """Sorted event times of a Poisson process of the given rate on the
    disjoint intervals [t0[k], t1[k]): one draw over the intervals laid end
    to end, mapped back; scalars give one interval."""
    t0 = np.atleast_1d(np.asarray(t0, np.float64))
    t1 = np.atleast_1d(np.asarray(t1, np.float64))
    if rate <= 0.0 or t0.size == 0:
        return np.empty(0, np.float64)
    ends = np.cumsum(t1 - t0)
    n = rng.poisson(rate * ends[-1])
    u = rng.uniform(0.0, ends[-1], n)
    u.sort()
    k = np.minimum(np.searchsorted(ends, u, "right"), t0.size - 1)
    times = t0[k] + (u - np.concatenate(([0.0], ends[:-1]))[k])
    # in order already, but for rounding where two intervals touch
    times.sort(kind="stable")
    return times


def frozen_draw_idler(rng, rate, lo, hi, paired, dead_time):
    """The windowed idler rounds, every open stretch in every round; returns
    the drawn idler events, sorted."""
    start = lo.copy()
    bound = np.concatenate(([0.0], hi[:-1]))
    after = lo.copy()
    todo = np.arange(lo.size)
    top = hi
    reach = 2.0 * dead_time
    drawn = []
    while todo.size:
        new = np.maximum(bound[todo], lo[todo] - reach)
        events = monitor._draw_spans(rng, rate, new, top)[0]
        drawn.append(events)
        old = start[todo]
        times = np.concatenate((events, paired))
        label = np.concatenate(
            (np.searchsorted(new, events, "right"), np.searchsorted(new, paired, "right"))
        ) - 1
        inside = (label >= 0) & (times < old[label])
        own = np.arange(todo.size)
        points = np.concatenate((new, times[inside], after[todo]))
        owner = np.concatenate((own, label[inside], own))
        order = np.argsort(points, kind="stable")
        points, owner = points[order], owner[order]
        head = (owner[1:] == owner[:-1]) & (points[1:] >= points[:-1] + dead_time)
        done = new <= bound[todo]
        done[owner[1:][head]] = True
        after[todo] = points[np.searchsorted(owner, own) + 1]
        start[todo] = new
        top = new[~done]
        todo = todo[~done]
        reach *= 2.0
    bulk = np.concatenate(drawn) if drawn else np.empty(0, np.float64)
    bulk.sort()
    return bulk


def frozen_window_hulls(arms, half_window, shift, duration):
    """The hulls by an argsort of all window starts and a running maximum of
    their ends: each run of windows clipped to the run, the empty ones
    dropped, then the union of the four runs."""
    runs = []
    for triggers in arms:
        for offset in (0.0, shift):
            lo, hi = monitor._window_edges(triggers, half_window, offset)
            lo, hi = np.maximum(lo, 0.0), np.minimum(hi, duration)
            keep = hi > lo
            runs.append((lo[keep], hi[keep]))
    lo = np.concatenate([lo for lo, _ in runs])
    hi = np.concatenate([hi for _, hi in runs])
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    reach = np.maximum.accumulate(hi[order])
    first = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    return lo[first], reach[np.append(first[1:] - 1, lo.size - 1)]


def frozen_count_coincidences(triggers, partners, half_window, offset):
    """Triggers with a partner in their window, by two searches each."""
    triggers = np.ascontiguousarray(triggers, np.float64)
    partners = np.ascontiguousarray(partners, np.float64)
    if triggers.size == 0 or partners.size == 0:
        return 0
    d = triggers - float(offset)
    first = np.searchsorted(partners, d - float(half_window), "left")
    last = np.searchsorted(partners, d + float(half_window), "right")
    return int(np.count_nonzero(last > first))


def dead_time_sequential(times, dead_time):
    # non-paralyzable: accept the first event at or after the free time,
    # then block for dead_time
    out = np.empty(times.size, np.float64)
    m = 0
    free = -np.inf
    for i in range(times.size):
        t = times[i]
        if t >= free:
            out[m] = t
            m += 1
            free = t + dead_time
    return out[:m], free


def count_coincidences_sequential(triggers, partners, half_window, offset):
    # a trigger at t scores when >= 1 partner lies in
    # [(t - offset) - half_window, (t - offset) + half_window]
    count = 0
    j = 0
    n = partners.size
    for i in range(triggers.size):
        d = triggers[i] - offset
        lo = d - half_window
        hi = d + half_window
        while j < n and partners[j] < lo:
            j += 1
        if j < n and partners[j] <= hi:
            count += 1
    return count
