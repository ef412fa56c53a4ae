"""Run configuration: JSON parsing, defaults, and canonical dumps.

All physical quantities are SI base units (Hz, s, W, J); fractions are plain
reals. Each key is declared once, in DEFAULTS, at the default operating
point; a missing key takes its default, so an empty config reproduces the
headline numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ValidationError, is_integer
from .eve import SystemParams
from .monitor import MonitorSimConfig
from .rates import ConfidenceSpec

# every config key, by section, at its default: a key's type is its
# default's (an int key refuses a float, a float key takes an int), and a
# list's items take the type of its first item
DEFAULTS = {
    "system": {
        "W": 2.2e12,
        "R": 1e8,
        "kappa": 0.1,
        "eta": 0.9,
        "kappa_B": 0.71,
        "G_B": 3.8e3,
        "N_B": 9.7e3,
        "beta": 0.94,
    },
    "attack": {"f_e_hat": 7e-4, "sigma": 2e-3, "n_sigma": 1, "n_sigma_list": [1, 2, 3, 4, 5]},
    "sweep": {"n_s_min": 1e-4, "n_s_max": 0.1, "points": 80, "log_scale": True},
    "monitor": {
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
    },
    "output": {"precision": 9},
}


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
class RunConfig:
    system: SystemParams
    confidence: ConfidenceSpec
    # the confidence at each attack.n_sigma_list level, in order
    confidence_levels: tuple[ConfidenceSpec, ...]
    # the monitor at f_e_true = 0, the sweep's reference row
    monitor: MonitorSimConfig
    # every key of DEFAULTS at its checked value, as --dump-config prints it
    settings: dict


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _typed(name: str, value, default):
    """value checked against the type of its key's default: bool, int, float
    (an int widens; NaN and the infinities are refused), or a list whose
    items take the type of the default's first item."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        return [_typed(name, item, default[0]) for item in value]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true/false, got {value!r}")
    elif isinstance(default, int):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _section(raw: dict, name: str) -> dict:
    """Every key of section name at its type-checked value, the config's
    over the default's."""
    given = _require_mapping(raw.get(name, {}), name)
    for key in given:
        if key not in DEFAULTS[name]:
            raise ConfigError(f"unknown key {name}.{key}")
    return {
        key: _typed(f"{name}.{key}", given.get(key, default), default)
        for key, default in DEFAULTS[name].items()
    }


def _build(cls, where: str, values: dict, **fixed):
    """cls from the values that name its fields, each fixed field in place of
    its value; a refusal of cls becomes a ConfigError that names where."""
    try:
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name not in fixed}, **fixed)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict, refusing a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_run_config(path: str | None = None) -> RunConfig:
    """Parse a JSON config file (or defaults when path is None)."""
    if path is None:
        raw: dict = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # not JSON (with line/column), not UTF-8, an integer past the
            # digit limit, a repeated key, or nested past the recursion limit
            raise ConfigError(f"{path}: {exc}") from None
    raw = _require_mapping(raw, "config root")
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config section {key!r}")

    # each section's keys are type-checked before its rules run
    system = _section(raw, "system")
    params = _build(SystemParams, "system", system)
    # the monitor's estimate of f_E and the confidence levels it is taken
    # at; a known f_E is {"f_e_hat": x, "sigma": 0}
    attack = _section(raw, "attack")
    confidence = _build(ConfidenceSpec, "attack", attack)
    if not attack["n_sigma_list"]:
        raise ConfigError("attack.n_sigma_list must be a non-empty list")
    # the optimize command takes the bound at each level
    levels = tuple(
        _build(ConfidenceSpec, "attack.n_sigma_list", attack, n_sigma=n) for n in attack["n_sigma_list"]
    )
    sweep = _section(raw, "sweep")
    points, n_s_min = sweep["points"], sweep["n_s_min"]
    if points < 2:
        raise ConfigError(f"sweep.points must be >= 2, got {points}")
    if points > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep.points must be <= {MAX_SWEEP_POINTS}, got {points}")
    if not n_s_min < sweep["n_s_max"]:
        raise ConfigError("sweep requires n_s_min < n_s_max")
    if sweep["log_scale"] and n_s_min <= 0:
        raise ConfigError("sweep.n_s_min must be positive on a log grid")
    if n_s_min < 0:
        raise ConfigError("sweep.n_s_min must be >= 0")
    monitor = _section(raw, "monitor")
    trials = monitor["trials"]
    if trials < 2:
        raise ConfigError(f"monitor.trials must be >= 2, got {trials}")
    if trials > MAX_MONITOR_TRIALS:
        raise ConfigError(f"monitor.trials must be <= {MAX_MONITOR_TRIALS}, got {trials}")
    # the monitor runs on the key-rate model's channel (system.kappa); each
    # sweep row is checked as the run sweep_injection will make of it
    monitor_sim = _build(MonitorSimConfig, "monitor", monitor, kappa=params.kappa, f_e_true=0.0)
    for v in monitor["sweep_f_e"]:
        _build(MonitorSimConfig, "monitor.sweep_f_e", monitor, kappa=params.kappa, f_e_true=v)
    output = _section(raw, "output")
    if not 1 <= output["precision"] <= 17:
        raise ConfigError(f"output.precision must be in [1,17], got {output['precision']}")
    return RunConfig(
        system=params,
        confidence=confidence,
        confidence_levels=levels,
        monitor=monitor_sim,
        settings={"system": system, "attack": attack, "sweep": sweep, "monitor": monitor, "output": output},
    )


def dump_config(cfg: RunConfig) -> str:
    """The settings as canonical JSON; it reparses to the same config."""
    return json.dumps(cfg.settings, indent=2, sort_keys=True) + "\n"
