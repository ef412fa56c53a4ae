"""Full-stream reference simulator for the windowed monitor engine.

It draws every idler event of the run, filters each detector's whole
stream, and counts coincidences with count_coincidences directly. The
library draws the idler stream only around the coincidence windows; both
must give the same distribution of the six measured rates.
"""

from __future__ import annotations

import numpy as np

from flqkd import monitor
from flqkd._kernels import count_coincidences, dead_time_filter


def full_stream_counts(cfg: monitor.MonitorSimConfig, draws) -> list[int]:
    """(singles_a, c_ia, c_ia_shift, singles_b, c_ib, c_ib_shift) of whole
    category streams (category -> times; a missing category is empty)."""

    def live(*names):
        stream = np.sort(np.concatenate([np.asarray(draws.get(n, ()), np.float64) for n in names]))
        return dead_time_filter(stream, cfg.dead_time, 0.0)[0]

    idler = live("i_only", "i_alice", "i_bob")
    half_window = 0.5 * cfg.coinc_window
    counts = []
    for taps in (live("i_alice", "a_only", "ase_a"), live("i_bob", "b_only", "ase_b", "eve")):
        counts += [
            taps.size,
            count_coincidences(taps, idler, half_window, 0.0),
            count_coincidences(taps, idler, half_window, cfg.shift_offset),
        ]
    return counts


def simulate_full_stream(cfg: monitor.MonitorSimConfig) -> tuple[float, ...]:
    """(s_a, c_ia, c_ia_shift, s_b, c_ib, c_ib_shift) rates of one seeded run."""
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.rng_seed)))
    draws = {
        name: monitor._poisson_times(rng, rate, 0.0, cfg.duration)
        for name, rate in monitor._category_rates(cfg).items()
    }
    return tuple(c / cfg.duration for c in full_stream_counts(cfg, draws))
