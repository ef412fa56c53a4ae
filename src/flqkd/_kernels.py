"""Hot kernels for the coincidence simulator: dead-time filtering and
windowed coincidence counting over sorted timestamp arrays.

Both kernels are vectorized numpy. The tests hold their sequential loop
versions (tests/monitor_oracle.py) and require bit-identical results against
them; all random number generation happens outside the kernels.

The numpy dead-time filter is exact because of one property of the greedy
non-paralyzable rule: call event i a cluster head when
times[i] >= times[i-1] + dead_time, with the same float addition the
sequential kernel makes. A head is always kept. The last kept event before
it lies at or before times[i-1], and float addition is monotone, so the
detector is free again by times[i-1] + dead_time <= times[i]. The first
event at or after free_from is a head as well. Between two heads the events
form a cluster of short gaps, and the kept ones are found by chasing the
successor rule from the cluster's head: the next kept event is the first one
at or after the last kept time plus dead_time. That chase cannot pass the
next head, so the clusters are independent and all of them are chased at
once, one array step per kept event of the longest chain in any cluster.
"""

from __future__ import annotations

import numpy as np


def dead_time_filter(times, dead_time, free_from):
    times = np.ascontiguousarray(times, np.float64)
    dead_time = float(dead_time)
    free_from = float(free_from)
    start = int(np.searchsorted(times, free_from, "left"))
    if start >= times.size:
        return times[:0].copy(), free_from
    live = times[start:]
    n = live.size
    reach = live + dead_time
    # waiting[i]: event i sits in a cluster and is not known to be kept yet;
    # the False at n ends every chase that runs off the end of the stream
    waiting = np.zeros(n + 1, bool)
    np.less(live[1:], reach[:-1], out=waiting[1:n])
    cur = np.flatnonzero(waiting[1:] & ~waiting[:-1])
    while cur.size:
        cur = live.searchsorted(reach[cur])
        # a chase stops on a kept event: the next head, or an earlier one
        # when reach[cur] rounds to live[cur]
        cur = cur[waiting[cur]]
        waiting[cur] = False
    del reach  # release it before the output is allocated
    kept = live[~waiting[:-1]]
    return kept, kept[-1] + dead_time


def count_coincidences(triggers, partners, half_window, offset):
    triggers = np.ascontiguousarray(triggers, np.float64)
    partners = np.ascontiguousarray(partners, np.float64)
    half_window = float(half_window)
    offset = float(offset)
    if triggers.size == 0 or partners.size == 0:
        return 0
    d = triggers - offset
    # the first partner at or after the window's start scores iff it lies at
    # or before the window's end
    first = np.searchsorted(partners, d - half_window, "left")
    hit = partners.take(first, mode="clip") <= d + half_window
    return int(np.count_nonzero(hit & (first < partners.size)))

