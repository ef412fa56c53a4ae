"""Host-speed reference: a fixed computation timed next to the operations.

On a shared host the speed of identical work drifts by 20-30% for seconds
to minutes at a time as other tenants load the machine. On a 2-vCPU host,
over four minutes of unchanged operations, the medians of 15- to 30-s
windows spread by 0.07 to 0.31 (interquartile range over median). Divided
by this reference, timed between the operations, the medians of the
key-rate and nominal monitor operations spread by 0.02 to 0.03. So every
time the benchmark reports as an end-to-end metric is scaled by
REFERENCE_S over the reference's time measured next to it: it reads as
seconds on a host where the reference takes REFERENCE_S. Wall times go to
the report line unscaled.

The reference never calls flqkd, so a change to the program moves scaled
and wall times by the same ratio. It has two parts, timed separately and
combined as a geometric mean, after the kinds of work the program does:

- arith: a Python loop of scalar float arithmetic and math calls, as in the
  rate model's series and the interpreter loops of the monitor;
- small: numpy calls on 6x6 matrices (array construction, a symmetry
  check, Cholesky, eigenvalues of a symplectic product, sorting), as in the
  Holevo bound.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the reference's time on a 2-vCPU host at its usual speed (Python 3.11,
# numpy 2.4); scaled times then read as seconds on such a host
REFERENCE_S = 0.011
# sample the reference after an operation once this long has passed since
# the last sample
SAMPLE_EVERY_S = 1.0
# samples per reference point; their median is used
SAMPLES_PER_POINT = 3
_ARITH_STEPS = 40_000
_SMALL_REPEATS = 150


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20160702)
        m = rng.random((6, 6))
        self._entries = [float(x) for x in (m @ m.T + 6.0 * np.eye(6)).ravel()]
        self._omega = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        self.sample()  # the first pass pays for lazy set-up in numpy and LAPACK

    @staticmethod
    def _arith() -> float:
        total = 0.0
        for k in range(_ARITH_STEPS):
            t = 0.1 * (k % 7 + 1)
            total += math.exp(-t * t) / (1.0 + t) + math.log1p(t)
        return total

    def _small(self) -> float:
        total = 0.0
        for _ in range(_SMALL_REPEATS):
            arr = np.array(self._entries, dtype=float).reshape(6, 6)
            total += float(np.max(np.abs(arr - arr.T)))
            np.linalg.cholesky(0.5 * (arr + arr.T))
            eig = np.linalg.eigvals(self._omega @ arr)
            total += float(np.sort(np.abs(eig[eig.imag > 0]))[-1])
        return total

    def _pass(self) -> float:
        t0 = time.perf_counter()
        self._arith()
        t1 = time.perf_counter()
        self._small()
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))

    def sample(self) -> float:
        """Seconds: the median of SAMPLES_PER_POINT passes, each the geometric
        mean of the two parts' times."""
        return statistics.median(self._pass() for _ in range(SAMPLES_PER_POINT))


def scale(wall_s: float, ref_before: float, ref_after: float) -> float:
    """A wall time in reference seconds, against the mean of the reference
    samples taken just before and just after it."""
    return wall_s * REFERENCE_S / ((ref_before + ref_after) / 2.0)
