"""Full-stream reference simulator for the windowed monitor engine.

It draws every idler event of the run, filters each detector's whole
stream, and counts coincidences with the library's own counter. The library
draws the idler stream only around the coincidence windows; both must give
the same distribution of the six measured rates.
"""

from __future__ import annotations

import math

import numpy as np

from flqkd import monitor
from flqkd._kernels import dead_time_filter

# generated events per segment; bounds peak memory
SEGMENT_EVENT_BUDGET = 4.0e6


def full_stream_segments(cfg: monitor.MonitorSimConfig, rng: np.random.Generator):
    """Yield (end, idler, alice, bob) per segment of the whole run, as
    monitor._count_segments takes them."""
    rates = monitor._category_rates(cfg)
    n_segments = max(1, int(math.ceil(cfg.duration * sum(rates.values()) / SEGMENT_EVENT_BUDGET)))
    edges = np.linspace(0.0, cfg.duration, n_segments + 1)

    free_i = free_a = free_b = 0.0
    for seg in range(n_segments):
        t0, t1 = edges[seg], edges[seg + 1]
        draws = {name: monitor._poisson_times(rng, rate, t0, t1) for name, rate in rates.items()}
        idler_stream = monitor._merge_sorted(draws["i_only"], draws["i_alice"], draws["i_bob"])
        alice_stream = np.sort(np.concatenate([draws[k] for k in ("i_alice", "a_only", "ase_a")]))
        bob_stream = np.sort(np.concatenate([draws[k] for k in ("i_bob", "b_only", "ase_b", "eve")]))

        idler_live, free_i = dead_time_filter(idler_stream, cfg.dead_time, free_i)
        alice_live, free_a = dead_time_filter(alice_stream, cfg.dead_time, free_a)
        bob_live, free_b = dead_time_filter(bob_stream, cfg.dead_time, free_b)
        end = t1 if seg + 1 < n_segments else math.inf
        yield end, idler_live, alice_live, bob_live


def simulate_full_stream(cfg: monitor.MonitorSimConfig) -> tuple[float, ...]:
    """(s_a, c_ia, c_ia_shift, s_b, c_ib, c_ib_shift) rates of one seeded run."""
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.rng_seed)))
    counts = monitor._count_segments(
        full_stream_segments(cfg, rng), cfg.coinc_window, cfg.shift_offset
    )
    return tuple(c / cfg.duration for c in counts)
