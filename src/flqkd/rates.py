"""Bit-error rates, mutual information, and secret-key-rate optimization.

The receiver-side chain: Alice's homodyne BER through the Gaussian-noise
Q-function, Shannon information of the resulting binary symmetric channel,
secret-key efficiency SKE = beta * I_AB - chi against the collective-attack
Holevo bound, and a grid-plus-golden-section maximizer over the source
brightness N_S.

The maximizer makes few rate calls, each over many points: one call scans
its 64-point grid, and the golden-section steps go in batches. Each batch
holds every point the next three steps could ask for, the lookahead
following the bracket alone, both ways at each step; the steps read their
values from it. An array call gives each point the value of the scalar
call, so the iterates, and the optimum, are those of the one-point search
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite
from .eve import SystemParams, check_brightness, holevo_bound
from .gaussian import elementwise, scalar_or_array

_SQRT_2 = math.sqrt(2.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# relative width at which the golden-section search stops
_TOL = 1e-6
# golden steps whose points one rate call evaluates
_LOOKAHEAD = 3


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
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError(f"n_sigma must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class OptimizeResult:
    """Brightness maximizing the key rate; positive_key is False when the
    whole search range yields no positive rate."""

    n_s_opt: float
    point: RatePoint
    positive_key: bool


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


def _golden_step(lo, hi, h, c, d, c_wins):
    """The state (lo, hi, h, c, d) one golden step on: the bracket keeps
    c's side when c_wins, else d's, and its new point is c or d in turn."""
    h *= _INV_PHI
    if c_wins:
        return lo, d, h, lo + _INV_PHI2 * h, c
    return c, hi, h, d, c + _INV_PHI * h


def _points_ahead(lo, hi, h, c, d, steps: int) -> list[float]:
    """Every point that the next `steps` golden steps from the bracket
    (lo, hi, h, c, d) could ask for: each step is followed both ways, so
    each step ahead doubles the points it may need."""
    if steps == 0 or not h > _TOL * max(abs(lo), abs(hi)):
        return []
    points = []
    for c_wins in (True, False):
        state = _golden_step(lo, hi, h, c, d, c_wins)
        points += [state[3] if c_wins else state[4], *_points_ahead(*state, steps - 1)]
    return points


def _golden_max(fun, lo: float, hi: float) -> float:
    """Golden-section maximizer of fun over [lo, hi], to a relative _TOL or
    until the bracket stops narrowing.

    fun takes an array of points and returns their values. The iterates are
    those of the one-point search, which asks for one new point per step.
    When a step asks for a point not yet known, one call evaluates it
    together with every point that the next _LOOKAHEAD - 1 steps could ask
    for; the lookahead follows the bracket alone, both ways at each step
    (1 + 2 + 4 points; the first call takes both starting points and two
    steps ahead). The steps then read their values from that batch. fun
    must give each point the value it gives that point alone, so every
    comparison, and the returned midpoint, is the one-point search's bit
    for bit.
    """
    known = {}
    h = hi - lo
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    # closing in on 0 the relative test never ends the search, so it also
    # ends once a step no longer narrows the bracket in float
    width = math.inf
    while True:
        need = [x for x in (c, d) if x not in known]
        if need:
            ahead = [*need, *_points_ahead(lo, hi, h, c, d, _LOOKAHEAD - 1)]
            known.update(zip(ahead, fun(np.array(ahead)).tolist()))
        if not (h > _TOL * max(abs(lo), abs(hi)) and hi - lo < width):
            return 0.5 * (lo + hi)
        width = hi - lo
        lo, hi, h, c, d = _golden_step(lo, hi, h, c, d, known[c] > known[d])


def search_grid(n_s_range: tuple[float, float], points: int = 64) -> np.ndarray:
    """points values log-spaced from lo to hi: the optimizer's coarse grid,
    and the CLI's log sweep.

    A range starting at 0 starts its log spacing at 1e-12 hi and puts 0 in
    front. The ends are exactly lo and hi; logspace alone can miss them by
    an ulp and so step outside the range.
    """
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
        raise ValidationError(f"need an integer number of grid points, got {points!r}")
    if points < 2:
        raise ValidationError(f"need at least 2 grid points, got {points!r}")
    lo, hi = float(n_s_range[0]), float(n_s_range[1])
    if not 0.0 <= lo < hi < math.inf:
        raise ValidationError(f"need 0 <= lo < hi < inf, got {n_s_range!r}")
    grid_lo = lo if lo > 0.0 else 1e-12 * hi
    grid = np.logspace(math.log10(grid_lo), math.log10(hi), points)
    grid[0], grid[-1] = grid_lo, hi
    if lo < grid_lo:
        grid = np.concatenate(([lo], grid))
    return grid


def optimize_brightness(
    f_e: float,
    params: SystemParams,
    n_s_range: tuple[float, float] = (1e-5, 1.0),
) -> OptimizeResult:
    """Maximize the secret key rate over the source brightness.

    A log-spaced coarse grid locates the bracketing interval (the rate is
    unimodal in N_S: BER improvement against Holevo growth); golden-section
    search then refines the maximizer to a relative 1e-6. An
    everywhere-negative range is not an error; the best point is returned
    flagged.
    """
    grid = search_grid(n_s_range)

    def skr_at(x: np.ndarray) -> np.ndarray:
        return skr_lower_bound(x, f_e, params).skr

    vals = skr_lower_bound(grid, f_e, params).skr
    best = int(np.argmax(vals))
    bracket_lo = grid[max(best - 1, 0)]
    bracket_hi = grid[min(best + 1, grid.size - 1)]
    n_s_opt = _golden_max(skr_at, float(bracket_lo), float(bracket_hi))
    point = skr_lower_bound(n_s_opt, f_e, params)
    if point.skr < vals[best]:
        # golden refinement can only improve on the grid seed; keep the seed otherwise
        n_s_opt = float(grid[best])
        point = skr_lower_bound(n_s_opt, f_e, params)
    return OptimizeResult(n_s_opt=n_s_opt, point=point, positive_key=point.skr > 0.0)


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
