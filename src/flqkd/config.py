"""Run configuration: JSON parsing, defaults, and canonical dumps.

All physical quantities are SI base units (Hz, s, W, J); fractions are plain
reals. Missing fields fall back to the default operating point below, so an
empty config reproduces the headline numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .errors import ConfigError, FlqkdError, ValidationError
from .eve import SystemParams
from .monitor import MonitorSimConfig
from .rates import ConfidenceSpec

DEFAULT_SYSTEM = {
    "W": 2.2e12,
    "R": 1e8,
    "kappa": 0.1,
    "eta": 0.9,
    "kappa_B": 0.71,
    "G_B": 3.8e3,
    "N_B": 9.7e3,
    "beta": 0.94,
}
DEFAULT_ATTACK = {"f_e_hat": 7e-4, "sigma": 2e-3, "n_sigma": 1, "n_sigma_list": [1, 2, 3, 4, 5]}
DEFAULT_SWEEP = {"n_s_min": 1e-4, "n_s_max": 0.1, "points": 80, "log_scale": True}
DEFAULT_MONITOR = {
    "pair_rate": 2e5,
    "ase_rate_at_source": 2e5,
    "tap_alice": 1e-3,
    "tap_bob": 1e-3,
    "det_eff_idler": 0.8,
    "det_eff_alice": 0.8,
    "det_eff_bob": 0.8,
    "dead_time": 5e-8,
    "coinc_window": 1e-9,
    "shift_offset": 2e-7,
    "duration": 60.0,
    "rng_seed": 20260815,
    "sweep_f_e": [0.25, 0.5, 0.75, 1.0],
    "trials": 8,
}
DEFAULT_OUTPUT = {"precision": 9}

_SECTIONS = ("system", "attack", "sweep", "monitor", "output")


# rate-curve peaks at ~4.2 KB and takes ~80 us per sweep point (measured at
# 1e4 and 5e4 points on a 2-vCPU host), so 1e6 points may ask for ~4 GB and
# ~80 s; numpy refuses an array only near 1e19 points.
MAX_SWEEP_POINTS = 10**6

# sweep_injection spawns a seed per trial when a sweep value's row starts,
# at ~11 us and ~470 B each (measured at 1e5 on a 2-vCPU host), and a trial
# at the default point takes ~8 ms: 1e5 trials are ~47 MB and ~1 s of
# seeding and ~13 min of running per value.
MAX_MONITOR_TRIALS = 10**5


@dataclass(frozen=True)
class SweepSpec:
    n_s_min: float
    n_s_max: float
    points: int
    log_scale: bool

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ConfigError(f"sweep.points must be >= 2, got {self.points}")
        if self.points > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep.points must be <= {MAX_SWEEP_POINTS}, got {self.points}")
        if not self.n_s_min < self.n_s_max:
            raise ConfigError("sweep requires n_s_min < n_s_max")
        if self.log_scale and self.n_s_min <= 0:
            raise ConfigError("sweep.n_s_min must be positive on a log grid")
        if self.n_s_min < 0:
            raise ConfigError("sweep.n_s_min must be >= 0")


@dataclass(frozen=True)
class OutputSpec:
    precision: int

    def __post_init__(self) -> None:
        if not 1 <= self.precision <= 17:
            raise ConfigError(f"output.precision must be in [1,17], got {self.precision}")


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    confidence: ConfidenceSpec
    n_sigma_list: tuple[int, ...]
    sweep: SweepSpec
    monitor: MonitorSimConfig
    monitor_sweep_f_e: tuple[float, ...]
    monitor_trials: int
    output: OutputSpec


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _merge(raw: dict, section: str, defaults: dict) -> dict:
    merged = dict(defaults)
    for key, value in _require_mapping(raw.get(section, {}), section).items():
        if key not in defaults:
            raise ConfigError(f"unknown key {section}.{key}")
        merged[key] = value
    return merged


def _typed(section: str, key: str, value, kind):
    """value checked against a field's annotation string: "float" (an int
    widens; NaN and the infinities are refused), "int" or "bool"."""
    name = f"{section}.{key}"
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true/false, got {value!r}")
    if kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _build(cls, section: str, values: dict, **fixed):
    """cls from values, each checked against its field's type, and the fixed
    fields, which no config key sets."""
    kinds = {f.name: f.type for f in fields(cls)}
    checked = {key: _typed(section, key, value, kinds[key]) for key, value in values.items()}
    return cls(**checked, **fixed)


def load_run_config(path: str | None = None) -> RunConfig:
    """Parse a JSON config file (or defaults when path is None)."""
    if path is None:
        raw: dict = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # not JSON (with line/column), not UTF-8, an integer past the
            # digit limit, or nested past the recursion limit
            raise ConfigError(f"{path}: {exc}") from None
    raw = _require_mapping(raw, "config root")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config section {key!r}")

    try:
        system = _build(SystemParams, "system", _merge(raw, "system", DEFAULT_SYSTEM))
        confidence, n_sigma_list = _parse_attack(raw)
        sweep = _build(SweepSpec, "sweep", _merge(raw, "sweep", DEFAULT_SWEEP))
        monitor, sweep_f_e, trials = _parse_monitor(raw, system.kappa)
        output = _build(OutputSpec, "output", _merge(raw, "output", DEFAULT_OUTPUT))
    except FlqkdError as exc:
        # a library check's message, or a ConfigError's own, as a ConfigError
        raise ConfigError(str(exc)) from None
    return RunConfig(
        system=system,
        confidence=confidence,
        n_sigma_list=n_sigma_list,
        sweep=sweep,
        monitor=monitor,
        monitor_sweep_f_e=sweep_f_e,
        monitor_trials=trials,
        output=output,
    )


def _parse_attack(raw: dict):
    """The monitor's estimate of f_E and the confidence levels it is taken
    at; a known f_E is {"f_e_hat": x, "sigma": 0}."""
    merged = _merge(raw, "attack", DEFAULT_ATTACK)
    raw_list = merged.pop("n_sigma_list")
    confidence = _build(ConfidenceSpec, "attack", merged)
    if not isinstance(raw_list, list) or not raw_list:
        raise ConfigError("attack.n_sigma_list must be a non-empty list")
    n_sigma_list = tuple(_typed("attack", "n_sigma_list", v, "int") for v in raw_list)
    for n in n_sigma_list:  # the optimize command takes the bound at each level
        try:
            replace(confidence, n_sigma=n)
        except ValidationError as exc:
            raise ConfigError(f"attack.n_sigma_list: {exc}") from None
    return confidence, n_sigma_list


def _parse_monitor(raw: dict, kappa: float):
    """The monitor's run, on the channel of the key-rate model (system.kappa);
    sweep_injection sets f_e_true for each row."""
    merged = _merge(raw, "monitor", DEFAULT_MONITOR)
    raw_sweep = merged.pop("sweep_f_e")
    trials = _typed("monitor", "trials", merged.pop("trials"), "int")
    if trials < 2:
        raise ConfigError(f"monitor.trials must be >= 2, got {trials}")
    if trials > MAX_MONITOR_TRIALS:
        raise ConfigError(f"monitor.trials must be <= {MAX_MONITOR_TRIALS}, got {trials}")
    if not isinstance(raw_sweep, list):
        raise ConfigError("monitor.sweep_f_e must be a list")
    sweep_f_e = tuple(_typed("monitor", "sweep_f_e", v, "float") for v in raw_sweep)
    if any(not 0.0 <= v <= 1.0 for v in sweep_f_e):
        raise ConfigError("monitor.sweep_f_e entries must be in [0,1]")
    monitor = _build(MonitorSimConfig, "monitor", merged, kappa=kappa, f_e_true=0.0)
    return monitor, sweep_f_e, trials


def effective_dict(cfg: RunConfig) -> dict:
    """Canonical nested-dict form of a parsed config; reparses identically."""
    attack = {**asdict(cfg.confidence), "n_sigma_list": list(cfg.n_sigma_list)}
    # kappa comes from system, and f_e_true is set per sweep row
    monitor = {key: value for key, value in asdict(cfg.monitor).items() if key in DEFAULT_MONITOR}
    monitor.update(sweep_f_e=list(cfg.monitor_sweep_f_e), trials=cfg.monitor_trials)
    return {
        "system": asdict(cfg.system),
        "attack": attack,
        "sweep": asdict(cfg.sweep),
        "monitor": monitor,
        "output": asdict(cfg.output),
    }


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(effective_dict(cfg), indent=2, sort_keys=True) + "\n"
