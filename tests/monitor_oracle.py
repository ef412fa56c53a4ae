"""Reference engines and kernels for the monitor simulator.

The full-stream simulator draws every idler event of the run, filters each
detector's whole stream, and counts coincidences with count_coincidences
directly. The library draws the idler stream only around the coincidence
windows; both must give the same distribution of the six counts, and the
same counts on shared draws.

dead_time_sequential and count_coincidences_sequential are the detector
rules written as one loop over the events, and gap_tests_sequential the
idler rounds' gap test written as one loop over the stretches; the
library's vectorized dead_time_filter, count_coincidences and _gap_tests
must give bit-identical results.

It also holds the runs and helpers the monitor's tests share: the unit
tests' base run, the acceptance gate's operating point and its idler-saturated
twin (which the benchmark's monitor workloads time), the live rate of a
non-paralyzable detector, and read_only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from flqkd import monitor
from flqkd.monitor import count_coincidences, dead_time_filter

# the monitor unit tests' base run: one second of a 2e5/s source
BASE = monitor.MonitorSimConfig(
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
    duration=1.0,
    rng_seed=0,
)
# the acceptance bias gate's operating point, >= 1e4 expected coincidences
# on each arm in its 51 s
NOMINAL_POINT = replace(
    BASE,
    pair_rate=2.46e5,
    ase_rate_at_source=2.46e5,
    kappa=0.9,
    det_eff_idler=0.95,
    det_eff_alice=0.95,
    det_eff_bob=0.95,
    duration=51.0,
    rng_seed=271828,
)
# the same source with the idler detector saturated (idler rate x dead time
# ~1.2) and a shift that clears the dead-time shadow
SATURATED_POINT = replace(NOMINAL_POINT, dead_time=5e-6, shift_offset=2e-5)


def live_rate(rate, dead_time):
    """The rate a non-paralyzable detector of the given dead time counts
    when events reach it at the given rate."""
    return rate / (1.0 + rate * dead_time)


def read_only(a):
    """a, made read-only: a kernel that writes into its input then raises."""
    a.setflags(write=False)
    return a


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


def gap_tests_sequential(times, label, new, old, after, dead_time):
    # stretch k's stream is its times before old[k]. It shows a gap when one
    # of new[k] -> its first time, a time -> the next, and its last time ->
    # after[k] (new[k] -> after[k] when it holds none) is >= dead_time, and
    # its first time (or after[k]) comes back with the answer
    done = np.zeros(new.size, bool)
    first = np.array(after, np.float64)
    i = 0
    for k in range(new.size):
        edges = [new[k]]
        while i < times.size and label[i] == k:
            if times[i] < old[k]:
                edges.append(times[i])
            i += 1
        edges.append(after[k])
        done[k] = any(b >= a + dead_time for a, b in zip(edges[:-1], edges[1:]))
        if len(edges) > 2:
            first[k] = edges[1]
    return done, first
