"""Bit-error rates, mutual information, and secret-key-rate optimization.

The receiver-side chain: Alice's homodyne BER through the Gaussian-noise
Q-function, Shannon information of the resulting binary symmetric channel,
secret-key efficiency SKE = beta * I_AB - chi against the collective-attack
Holevo bound, and a maximizer over the source brightness N_S that zooms in
on the best point by rounds of one rate call each over an even grid, and
stops where chi's float noise leaves the rate nothing finer to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, is_integer, require_finite
from .eve import SystemParams, check_brightness, elementwise, holevo_bound, scalar_or_array

_SQRT_2 = math.sqrt(2.0)
# relative width at which the optimizer's zoom stops: the n_s resolution that
# chi's float noise allows. Near an optimum that noise moves the rate by ~2e-6
# relative, enough to put the best point 3.6e-4 in n_s from the exact optimum,
# so narrower rounds only pick out the noise. Set it again once chi is exact
# (ROADMAP items 2 and 3).
_TOL = 3e-4
# evenly spaced points of each zoom round after the first
_ROUND_POINTS = 32


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal, Q(x) = erfc(x/sqrt(2))/2."""
    return 0.5 * math.erfc(float(x) / _SQRT_2)


def alice_ber(n_s, params: SystemParams):
    """Alice's homodyne bit-error rate Q(sqrt(2 M kappa eta (1-kappa_B) N_S / gamma)).

    n_s may be an array; Q is then evaluated element by element.
    """
    check_brightness(n_s)
    n_s = np.asarray(n_s, dtype=float)
    # a brightness too large for floats overflows to an infinite argument,
    # whose Q is the right limit, 0
    with np.errstate(over="ignore"):
        arg = 2.0 * params.M * params.kappa * params.eta * (1.0 - params.kappa_B) * n_s / params.gamma
    return elementwise(q_function, np.sqrt(arg))


def shannon_info(ber: float) -> float:
    """Shannon information of a binary symmetric channel with error rate ber."""
    if not 0.0 <= ber <= 1.0:
        raise ValidationError(f"bit-error rate must be in [0,1], got {ber!r}")
    p = ber
    total = 1.0
    if 0.0 < p:
        total += p * math.log2(p)
    if p < 1.0:
        total += (1.0 - p) * math.log2(1.0 - p)
    return total


@dataclass(frozen=True)
class RatePoint:
    """One operating point of the key-rate model, or one per element of an
    array of brightnesses, every field then an array of that shape."""

    n_s: float
    ppb: float
    ber: float
    i_ab: float
    chi_ub: float
    ske: float
    skr: float


@dataclass(frozen=True)
class ConfidenceSpec:
    """Measured injection fraction with uncertainty and a sigma multiplier."""

    f_e_hat: float
    sigma: float
    n_sigma: int

    def __post_init__(self) -> None:
        # an int n_sigma beyond the float range would overflow n_sigma * sigma
        require_finite(self, ("f_e_hat", "sigma", "n_sigma"))
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma!r}")
        n = self.n_sigma
        if not is_integer(n) or n < 1:
            raise ValidationError(f"n_sigma must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class OptimizeResult:
    """Brightness maximizing the key rate, as its best point: n_s_opt is its
    n_s, and positive_key is False when no point of the range yields key."""

    point: RatePoint

    @property
    def n_s_opt(self) -> float:
        return self.point.n_s

    @property
    def positive_key(self) -> bool:
        return self.point.skr > 0.0


def skr_lower_bound(n_s, f_e: float, params: SystemParams) -> RatePoint:
    """Assemble the full rate point at one (N_S, f_E), or at each N_S of an array.

    A scalar n_s gives float fields; an array gives fields of its shape,
    each element equal bit for bit to the scalar call at that N_S. SKE may
    be negative (no key possible); it is reported unclamped.
    """
    n_s = scalar_or_array(np.asarray(n_s, dtype=float))
    ber = alice_ber(n_s, params)
    i_ab = elementwise(shannon_info, ber)
    chi = holevo_bound(params, n_s, f_e)
    ske = params.beta * i_ab - chi
    return RatePoint(
        n_s=n_s,
        ppb=params.M * n_s,
        ber=ber,
        i_ab=i_ab,
        chi_ub=chi,
        ske=ske,
        skr=ske * params.R,
    )


def search_grid(n_s_range: tuple[float, float], points: int = 64) -> np.ndarray:
    """points values log-spaced from lo to hi, or points + 1 when lo is 0:
    the optimizer's coarse grid, and the CLI's log sweep.

    A range starting at 0 starts its log spacing at 1e-12 hi and puts 0 in
    front. The ends are exactly lo and hi, and every point lies between them
    in non-decreasing order: logspace alone can miss the ends by an ulp, and
    on a range a few ulps wide its inner points can fall outside it and out
    of order.
    """
    if not is_integer(points):
        raise ValidationError(f"need an integer number of grid points, got {points!r}")
    if points < 2:
        raise ValidationError(f"need at least 2 grid points, got {points!r}")
    lo, hi = float(n_s_range[0]), float(n_s_range[1])
    if not 0.0 <= lo < hi < math.inf:
        raise ValidationError(f"need 0 <= lo < hi < inf, got {n_s_range!r}")
    grid_lo = lo if lo > 0.0 else 1e-12 * hi
    grid = np.logspace(math.log10(grid_lo), math.log10(hi), points)
    grid[0], grid[-1] = grid_lo, hi
    np.clip(grid, grid_lo, hi, out=grid)
    np.maximum.accumulate(grid, out=grid)
    if lo < grid_lo:
        grid = np.concatenate(([lo], grid))
    return grid


def _zoom_max(rates_at, xs: np.ndarray) -> tuple[RatePoint, int]:
    """The best point of a zoom that starts from the points xs: the batch
    and the index in it of the largest rate any round evaluated, the
    earliest on a tie.

    rates_at takes an array of points and returns a RatePoint of arrays.
    Each round after the first evaluates _ROUND_POINTS points evenly spaced
    across the neighbours of the last round's best point, until that bracket
    is a relative _TOL wide (the n_s resolution chi's float noise allows) or
    no longer narrows in float. A round after the first whose best point is
    an end of xs also ends the zoom: the rate falls from that end across the
    round's spacing, and narrower rounds there would only pick out the rate's
    float noise, so an optimum at an end of the range comes back as that end
    exactly.
    """
    ends = (xs[0], xs[-1])
    best, best_k = None, 0
    # closing in on 0 the relative test never ends the zoom, so it also ends
    # once a round no longer narrows the bracket in float
    width = math.inf
    while True:
        batch = rates_at(xs)
        k = int(np.argmax(batch.skr))
        if best is None or batch.skr[k] > best.skr[best_k]:
            best, best_k = batch, k
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, xs.size - 1)])
        at_end = width < math.inf and xs[k] in ends
        if at_end or not (hi - lo > _TOL * max(abs(lo), abs(hi)) and hi - lo < width):
            return best, best_k
        width = hi - lo
        xs = np.linspace(lo, hi, _ROUND_POINTS)


def optimize_brightness(
    f_e: float,
    params: SystemParams,
    n_s_range: tuple[float, float] = (1e-5, 1.0),
) -> OptimizeResult:
    """Maximize the secret key rate over the source brightness.

    A log-spaced coarse grid locates the optimum (the rate is unimodal in
    N_S: BER improvement against Holevo growth); rounds of evenly spaced
    points then zoom in on it to a relative 3e-4, one rate call a round:
    four calls, 64 + 3 x 32 points, on the default system.
    The result is the best point any round evaluated, read from its round's
    arrays, which equal the scalar call bit for bit. An everywhere-negative
    range is not an error; the best point is returned flagged.
    """
    batch, k = _zoom_max(lambda xs: skr_lower_bound(xs, f_e, params), search_grid(n_s_range))
    point = RatePoint(**{f.name: getattr(batch, f.name)[k].item() for f in fields(batch)})
    return OptimizeResult(point)


def pirandola_limit(kappa: float) -> float:
    """Repeaterless one-way key-rate limit -log2(1 - kappa), bits per mode."""
    if not 0.0 < kappa < 1.0:
        raise ValidationError(f"kappa must be in (0,1), got {kappa!r}")
    return -math.log2(1.0 - kappa)


def f_e_upper_bound(spec: ConfidenceSpec) -> float:
    """Confidence-level upper bound clamp(f_e_hat + n_sigma * sigma, 0, 1).

    The measured value is used as-is (it may be negative, noise around zero)
    before the multiple of sigma is added; only the sum is clamped. A bound
    of 1 takes holevo_bound's f_e = 1 limit.
    """
    raw = spec.f_e_hat + spec.n_sigma * spec.sigma
    return min(max(raw, 0.0), 1.0)
