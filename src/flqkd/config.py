"""Run configuration: JSON parsing, defaults, and canonical dumps.

All physical quantities are SI base units (Hz, s, W, J); fractions are plain
reals. Missing fields fall back to the default operating point below, so an
empty config reproduces the headline numbers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import ConfigError, FlqkdError
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
    "hbar_omega0": 1.28e-19,
}
DEFAULT_ATTACK = {"f_e_hat": 7e-4, "sigma": 2e-3, "n_sigma": 1}
DEFAULT_SWEEP = {"n_s_min": 1e-4, "n_s_max": 0.1, "points": 80, "log_scale": True}
DEFAULT_MONITOR = {
    "pair_rate": 2e5,
    "ase_rate_at_source": 2e5,
    "kappa": 0.1,
    "f_e_true": 0.0,
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
DEFAULT_OUTPUT = {"csv_path": None, "svg_path": None, "precision": 9}

_SECTIONS = ("system", "attack", "sweep", "monitor", "output")


@dataclass(frozen=True)
class SweepSpec:
    n_s_min: float
    n_s_max: float
    points: int
    log_scale: bool


@dataclass(frozen=True)
class OutputSpec:
    csv_path: str | None
    svg_path: str | None
    precision: int


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    f_e_explicit: float | None
    confidence: ConfidenceSpec | None
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


def _merge(section: str, given: dict, defaults: dict) -> dict:
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {section}.{key}")
        merged[key] = value
    return merged


def _number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def _integer(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return value


def _boolean(section: str, key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be true/false, got {value!r}")
    return value


def load_run_config(
    path: str | None = None,
    seed_override: int | None = None,
    csv_override: str | None = None,
    svg_override: str | None = None,
) -> RunConfig:
    """Parse a JSON config file (or defaults when path is None)."""
    if path is None:
        raw: dict = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            # exc already carries line/column
            raise ConfigError(f"{path}: {exc}") from None
    raw = _require_mapping(raw, "config root")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config section {key!r}")

    try:
        system = _parse_system(_require_mapping(raw.get("system", {}), "system"))
        f_e_explicit, confidence, n_sigma_list = _parse_attack(
            _require_mapping(raw.get("attack", {}), "attack")
        )
        sweep = _parse_sweep(_require_mapping(raw.get("sweep", {}), "sweep"))
        monitor, sweep_f_e, trials = _parse_monitor(
            _require_mapping(raw.get("monitor", {}), "monitor"), seed_override
        )
        output = _parse_output(
            _require_mapping(raw.get("output", {}), "output"), csv_override, svg_override
        )
    except ConfigError:
        raise
    except FlqkdError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        system=system,
        f_e_explicit=f_e_explicit,
        confidence=confidence,
        n_sigma_list=n_sigma_list,
        sweep=sweep,
        monitor=monitor,
        monitor_sweep_f_e=sweep_f_e,
        monitor_trials=trials,
        output=output,
    )


def _parse_system(section: dict) -> SystemParams:
    merged = _merge("system", section, DEFAULT_SYSTEM)
    return SystemParams(**{k: _number("system", k, v) for k, v in merged.items()})


def _parse_attack(section: dict):
    if "f_e" in section:
        extra = sorted(set(section) - {"f_e"})
        if extra:
            raise ConfigError(
                f"attack gives explicit f_e; remove {', '.join(extra)} or drop f_e"
            )
        f_e = _number("attack", "f_e", section["f_e"])
        if not 0.0 <= f_e < 1.0:
            raise ConfigError(f"attack.f_e must be in [0,1), got {f_e!r}")
        return f_e, None, tuple(range(1, 6))
    allowed = dict(DEFAULT_ATTACK)
    allowed["n_sigma_list"] = list(range(1, 6))
    merged = _merge("attack", section, allowed)
    confidence = ConfidenceSpec(
        f_e_hat=_number("attack", "f_e_hat", merged["f_e_hat"]),
        sigma=_number("attack", "sigma", merged["sigma"]),
        n_sigma=_integer("attack", "n_sigma", merged["n_sigma"]),
    )
    raw_list = merged["n_sigma_list"]
    if not isinstance(raw_list, list) or not raw_list:
        raise ConfigError("attack.n_sigma_list must be a non-empty list")
    n_sigma_list = tuple(_integer("attack", "n_sigma_list", v) for v in raw_list)
    if any(n < 1 for n in n_sigma_list):
        raise ConfigError("attack.n_sigma_list entries must be >= 1")
    return None, confidence, n_sigma_list


def _parse_sweep(section: dict) -> SweepSpec:
    merged = _merge("sweep", section, DEFAULT_SWEEP)
    sweep = SweepSpec(
        n_s_min=_number("sweep", "n_s_min", merged["n_s_min"]),
        n_s_max=_number("sweep", "n_s_max", merged["n_s_max"]),
        points=_integer("sweep", "points", merged["points"]),
        log_scale=_boolean("sweep", "log_scale", merged["log_scale"]),
    )
    if sweep.points < 2:
        raise ConfigError(f"sweep.points must be >= 2, got {sweep.points}")
    if not sweep.n_s_min < sweep.n_s_max:
        raise ConfigError("sweep requires n_s_min < n_s_max")
    if sweep.log_scale and sweep.n_s_min <= 0:
        raise ConfigError("sweep.n_s_min must be positive on a log grid")
    if sweep.n_s_min < 0:
        raise ConfigError("sweep.n_s_min must be >= 0")
    return sweep


def _parse_monitor(section: dict, seed_override: int | None):
    merged = _merge("monitor", section, DEFAULT_MONITOR)
    raw_sweep = merged.pop("sweep_f_e")
    trials = _integer("monitor", "trials", merged.pop("trials"))
    if not isinstance(raw_sweep, list):
        raise ConfigError("monitor.sweep_f_e must be a list")
    sweep_f_e = tuple(_number("monitor", "sweep_f_e", v) for v in raw_sweep)
    if any(not 0.0 <= v <= 1.0 for v in sweep_f_e):
        raise ConfigError("monitor.sweep_f_e entries must be in [0,1]")
    seed = _integer("monitor", "rng_seed", merged.pop("rng_seed"))
    if seed_override is not None:
        seed = seed_override
    fields = {k: _number("monitor", k, v) for k, v in merged.items()}
    monitor = MonitorSimConfig(rng_seed=seed, **fields)
    return monitor, sweep_f_e, trials


def _parse_output(section: dict, csv_override: str | None, svg_override: str | None) -> OutputSpec:
    merged = _merge("output", section, DEFAULT_OUTPUT)
    for key in ("csv_path", "svg_path"):
        if merged[key] is not None and not isinstance(merged[key], str):
            raise ConfigError(f"output.{key} must be a string or null")
    precision = _integer("output", "precision", merged["precision"])
    if not 1 <= precision <= 17:
        raise ConfigError(f"output.precision must be in [1,17], got {precision}")
    return OutputSpec(
        csv_path=csv_override if csv_override is not None else merged["csv_path"],
        svg_path=svg_override if svg_override is not None else merged["svg_path"],
        precision=precision,
    )


def effective_dict(cfg: RunConfig) -> dict:
    """Canonical nested-dict form of a parsed config; reparses identically."""
    if cfg.f_e_explicit is not None:
        attack: dict = {"f_e": cfg.f_e_explicit}
    else:
        attack = {**asdict(cfg.confidence), "n_sigma_list": list(cfg.n_sigma_list)}
    monitor = {
        **asdict(cfg.monitor),
        "sweep_f_e": list(cfg.monitor_sweep_f_e),
        "trials": cfg.monitor_trials,
    }
    return {
        "system": asdict(cfg.system),
        "attack": attack,
        "sweep": asdict(cfg.sweep),
        "monitor": monitor,
        "output": asdict(cfg.output),
    }


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(effective_dict(cfg), indent=2, sort_keys=True) + "\n"
