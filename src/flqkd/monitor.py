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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import count_coincidences, dead_time_filter
from .errors import EstimatorUndefinedError, ValidationError

# generated events per simulation segment; bounds peak memory
_SEGMENT_EVENT_BUDGET = 4.0e6


@dataclass(frozen=True)
class MonitorCounts:
    """Measured rates from both monitor arms over one run.

    s_* are post-dead-time singles rates in counts/s; c_* are coincidence
    rates, time-aligned and shifted by the accidental offset.
    """

    s_a: float
    c_ia: float
    c_ia_shift: float
    s_b: float
    c_ib: float
    c_ib_shift: float
    duration: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValidationError(f"duration must be positive, got {self.duration!r}")
        rates = (self.s_a, self.c_ia, self.c_ia_shift, self.s_b, self.c_ib, self.c_ib_shift)
        if any(r < 0 for r in rates):
            raise ValidationError("rates must be >= 0")
        if self.c_ia > self.s_a or self.c_ia_shift > self.s_a:
            raise ValidationError("Alice coincidence rate exceeds singles rate")
        if self.c_ib > self.s_b or self.c_ib_shift > self.s_b:
            raise ValidationError("Bob coincidence rate exceeds singles rate")


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
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ValidationError(f"rng_seed must fit in 64 bits, got {self.rng_seed!r}")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated estimator statistics at one injected fraction."""

    f_e_true: float
    mean_estimate: float
    std_dev: float
    trials: int
    warnings: tuple[str, ...] = ()


def estimate_fe(counts: MonitorCounts) -> tuple[float, float]:
    """Injected-fraction estimate and its propagated standard error.

    estimate = 1 - [(c_ib - c_ib_shift)/s_b] / [(c_ia - c_ia_shift)/s_a].
    The error bar propagates Poisson variance rate/duration through each of
    the six measured rates to first order. Negative estimates are returned
    as-is; they are expected noise around zero.
    """
    excess_a = counts.c_ia - counts.c_ia_shift
    if excess_a <= 0 or counts.s_a <= 0:
        raise EstimatorUndefinedError(
            "Alice tap shows no excess coincidences; reference arm is dark or unpaired"
        )
    if counts.s_b <= 0:
        raise EstimatorUndefinedError("Bob tap recorded no counts")
    excess_b = counts.c_ib - counts.c_ib_shift
    ratio_a = excess_a / counts.s_a
    ratio_b = excess_b / counts.s_b
    estimate = 1.0 - ratio_b / ratio_a

    t = counts.duration
    var_excess_a = (counts.c_ia + counts.c_ia_shift) / t
    var_excess_b = (counts.c_ib + counts.c_ib_shift) / t
    var_s_a = counts.s_a / t
    var_s_b = counts.s_b / t
    var_ratio_a = var_excess_a / counts.s_a**2 + excess_a**2 * var_s_a / counts.s_a**4
    var_ratio_b = var_excess_b / counts.s_b**2 + excess_b**2 * var_s_b / counts.s_b**4
    var_estimate = var_ratio_b / ratio_a**2 + ratio_b**2 * var_ratio_a / ratio_a**4
    return float(estimate), float(math.sqrt(var_estimate))


def _detector_loads(cfg: MonitorSimConfig) -> dict[str, float]:
    # post-efficiency incident rate per detector, before dead time
    source = cfg.pair_rate + cfg.ase_rate_at_source
    flux_to_bob = (1.0 - cfg.tap_alice) * cfg.kappa * source
    return {
        "idler": cfg.pair_rate * cfg.det_eff_idler,
        "alice_tap": source * cfg.tap_alice * cfg.det_eff_alice,
        "bob_tap": flux_to_bob * cfg.tap_bob * cfg.det_eff_bob,
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


def _poisson_times(rng: np.random.Generator, rate: float, t0: float, t1: float) -> np.ndarray:
    if rate <= 0.0:
        return np.empty(0, np.float64)
    n = rng.poisson(rate * (t1 - t0))
    times = rng.uniform(t0, t1, n)
    times.sort()
    return times


def _merge_sorted(bulk: np.ndarray, *small: np.ndarray) -> np.ndarray:
    extra = [s for s in small if s.size]
    if not extra:
        return bulk
    add = np.sort(np.concatenate(extra)) if len(extra) > 1 else extra[0]
    if bulk.size == 0:
        return add
    return np.insert(bulk, np.searchsorted(bulk, add), add)


def simulate_monitor(config: MonitorSimConfig) -> MonitorCounts:
    """Run one seeded end-to-end simulation and return measured rates."""
    rng = np.random.default_rng(np.random.SeedSequence(int(config.rng_seed)))
    return _simulate(config, rng)


def _simulate(cfg: MonitorSimConfig, rng: np.random.Generator) -> MonitorCounts:
    singles_a, c_ia, c_ia_shift, singles_b, c_ib, c_ib_shift = _count_segments(
        _segments(cfg, rng), cfg.coinc_window, cfg.shift_offset
    )
    t = cfg.duration
    return MonitorCounts(
        s_a=singles_a / t,
        c_ia=c_ia / t,
        c_ia_shift=c_ia_shift / t,
        s_b=singles_b / t,
        c_ib=c_ib / t,
        c_ib_shift=c_ib_shift / t,
        duration=t,
        warnings=_saturation_warnings(cfg),
    )


def _segments(cfg: MonitorSimConfig, rng: np.random.Generator):
    """Yield (end, idler, alice, bob) per segment: the segment's end time (inf
    for the last one) and each detector's dead-time-filtered timestamps."""
    eff_i = cfg.det_eff_idler
    p_alice = cfg.tap_alice * cfg.det_eff_alice
    # an intruder replaces a fraction f_e_true of the flux entering Bob's
    # terminal, so Alice's surviving light carries the complementary factor
    p_bob = (1.0 - cfg.tap_alice) * cfg.kappa * (1.0 - cfg.f_e_true) * cfg.tap_bob * cfg.det_eff_bob
    source = cfg.pair_rate + cfg.ase_rate_at_source
    eve_rate = cfg.f_e_true * (1.0 - cfg.tap_alice) * cfg.kappa * source * cfg.tap_bob * cfg.det_eff_bob

    # category rates (Poisson marking of the pair and noise processes)
    r_pair_i_only = cfg.pair_rate * eff_i * (1.0 - p_alice - p_bob)
    r_pair_i_alice = cfg.pair_rate * eff_i * p_alice
    r_pair_i_bob = cfg.pair_rate * eff_i * p_bob
    r_pair_alice = cfg.pair_rate * (1.0 - eff_i) * p_alice
    r_pair_bob = cfg.pair_rate * (1.0 - eff_i) * p_bob
    r_ase_alice = cfg.ase_rate_at_source * p_alice
    r_ase_bob = cfg.ase_rate_at_source * p_bob

    gen_rate = (
        r_pair_i_only + r_pair_i_alice + r_pair_i_bob + r_pair_alice + r_pair_bob
        + r_ase_alice + r_ase_bob + eve_rate
    )
    n_segments = max(1, int(math.ceil(cfg.duration * gen_rate / _SEGMENT_EVENT_BUDGET)))
    edges = np.linspace(0.0, cfg.duration, n_segments + 1)

    free_i = free_a = free_b = 0.0
    for seg in range(n_segments):
        t0, t1 = edges[seg], edges[seg + 1]
        # fixed draw order keeps runs reproducible for a given seed
        i_only = _poisson_times(rng, r_pair_i_only, t0, t1)
        i_alice = _poisson_times(rng, r_pair_i_alice, t0, t1)
        i_bob = _poisson_times(rng, r_pair_i_bob, t0, t1)
        a_only = _poisson_times(rng, r_pair_alice, t0, t1)
        b_only = _poisson_times(rng, r_pair_bob, t0, t1)
        ase_a = _poisson_times(rng, r_ase_alice, t0, t1)
        ase_b = _poisson_times(rng, r_ase_bob, t0, t1)
        eve = _poisson_times(rng, eve_rate, t0, t1)

        idler_stream = _merge_sorted(i_only, i_alice, i_bob)
        alice_stream = np.sort(np.concatenate((i_alice, a_only, ase_a)))
        bob_stream = np.sort(np.concatenate((i_bob, b_only, ase_b, eve)))

        idler_live, free_i = dead_time_filter(idler_stream, cfg.dead_time, free_i)
        alice_live, free_a = dead_time_filter(alice_stream, cfg.dead_time, free_a)
        bob_live, free_b = dead_time_filter(bob_stream, cfg.dead_time, free_b)
        end = t1 if seg + 1 < n_segments else math.inf
        yield end, idler_live, alice_live, bob_live


def _count_segments(segments, coinc_window: float, shift_offset: float) -> tuple[int, ...]:
    """Singles and coincidence counts over consecutive stream segments.

    segments yields (end, idler, alice, bob): the segment's end time (inf for
    the last one) and its dead-time-filtered, sorted timestamps. Returns
    (singles_a, c_ia, c_ia_shift, singles_b, c_ib, c_ib_shift) as integers.
    """
    half_window = 0.5 * coinc_window
    # a trigger within one window of a segment end may pair with idler events
    # of the next segment, so it is counted there; the idler context keeps
    # enough of the past for the shifted windows of such late triggers too
    lookback = shift_offset + 2.0 * coinc_window
    idler_ctx = np.empty(0, np.float64)
    held = [np.empty(0, np.float64), np.empty(0, np.float64)]
    singles, aligned, shifted = [0, 0], [0, 0], [0, 0]
    for end, idler_live, *taps in segments:
        idler_ctx = np.concatenate((idler_ctx, idler_live))
        for arm, live in enumerate(taps):
            triggers = np.concatenate((held[arm], live))
            cut = np.searchsorted(triggers, end - coinc_window, "left")
            triggers, held[arm] = triggers[:cut], triggers[cut:]
            singles[arm] += live.size
            aligned[arm] += count_coincidences(triggers, idler_ctx, half_window, 0.0)
            shifted[arm] += count_coincidences(triggers, idler_ctx, half_window, shift_offset)
        idler_ctx = idler_ctx[np.searchsorted(idler_ctx, end - lookback, "left"):]
    return singles[0], aligned[0], shifted[0], singles[1], aligned[1], shifted[1]


def sweep_injection(
    base: MonitorSimConfig, f_e_values, trials: int
) -> list[SweepRow]:
    """Repeat the simulation at each injected fraction with spawned seeds.

    Returns one row per value with the sample mean and standard deviation
    (ddof=1) of the per-trial estimates, in the order given.
    """
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials!r}")
    values = [float(v) for v in f_e_values]
    children = np.random.SeedSequence(int(base.rng_seed)).spawn(len(values) * trials)
    rows = []
    for j, f_e in enumerate(values):
        cfg = replace(base, f_e_true=f_e)
        estimates = np.empty(trials)
        warnings: tuple[str, ...] = ()
        for k in range(trials):
            counts = _simulate(cfg, np.random.default_rng(children[j * trials + k]))
            estimates[k], _ = estimate_fe(counts)
            warnings = warnings or counts.warnings
        rows.append(
            SweepRow(
                f_e_true=f_e,
                mean_estimate=float(np.mean(estimates)),
                std_dev=float(np.std(estimates, ddof=1)),
                trials=trials,
                warnings=warnings,
            )
        )
    return rows
