"""JSON config parsing, defaults, and canonical dumps."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from flqkd.config import (
    DEFAULT_ATTACK,
    DEFAULT_MONITOR,
    DEFAULT_OUTPUT,
    DEFAULT_SWEEP,
    DEFAULT_SYSTEM,
    OutputSpec,
    SweepSpec,
    dump_config,
    effective_dict,
    load_run_config,
)
from flqkd.errors import ConfigError
from flqkd.eve import SystemParams
from flqkd.monitor import MonitorSimConfig
from flqkd.rates import ConfidenceSpec

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def _write(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def test_defaults_without_file():
    cfg = load_run_config(None)
    assert cfg.system.W == 2.2e12
    assert cfg.system.R == 1e8
    assert cfg.system.M == pytest.approx(2.2e4, rel=1e-12)
    assert cfg.confidence.f_e_hat == 7e-4
    assert cfg.confidence.sigma == 2e-3
    assert cfg.n_sigma_list == (1, 2, 3, 4, 5)
    assert cfg.sweep.points == 80 and cfg.sweep.log_scale
    assert cfg.monitor_trials == 8
    assert cfg.output.precision == 9


def test_partial_override(tmp_path):
    cfg = load_run_config(_write(tmp_path, {"system": {"W": 2.0e12, "kappa": 0.2}}))
    assert cfg.system.W == 2.0e12
    assert cfg.system.kappa == 0.2
    assert cfg.system.N_B == 9.7e3  # untouched default
    assert cfg.system.M == pytest.approx(2.0e4, rel=1e-12)


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_run_config(_write(tmp_path, {"systems": {}}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(_write(tmp_path, {"system": {"w": 1e12}}))


def test_type_guards(tmp_path):
    with pytest.raises(ConfigError, match="must be a number"):
        load_run_config(_write(tmp_path, {"system": {"kappa": True}}))
    with pytest.raises(ConfigError, match="must be an integer"):
        load_run_config(_write(tmp_path, {"sweep": {"points": 10.5}}))
    with pytest.raises(ConfigError, match="must be true/false"):
        load_run_config(_write(tmp_path, {"sweep": {"log_scale": 1}}))


def test_every_config_field_has_a_checked_kind():
    # the config checks a value by its field's annotation string; an
    # annotation evaluated to a type would match none of the checks
    for cls in (SystemParams, ConfidenceSpec, SweepSpec, MonitorSimConfig, OutputSpec):
        assert {f.type for f in fields(cls)} <= {"float", "int", "bool"}, cls.__name__


def test_semantic_errors_surface_as_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="kappa"):
        load_run_config(_write(tmp_path, {"system": {"kappa": 2.0}}))
    with pytest.raises(ConfigError, match="n_s_min < n_s_max"):
        load_run_config(_write(tmp_path, {"sweep": {"n_s_min": 0.5, "n_s_max": 0.1}}))
    with pytest.raises(ConfigError, match="precision"):
        load_run_config(_write(tmp_path, {"output": {"precision": 0}}))


def test_malformed_json_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        load_run_config(_write(tmp_path, '{"system": {,}}'))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config("/nonexistent/cfg.json")


def test_n_sigma_list_validation(tmp_path):
    cfg = load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": [2, 4]}}))
    assert cfg.n_sigma_list == (2, 4)
    with pytest.raises(ConfigError):
        load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": []}}))
    with pytest.raises(ConfigError):
        load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": [0]}}))


def test_dump_is_canonical_fixed_point(tmp_path):
    attack = {"f_e_hat": 0.001, "sigma": 0.0, "n_sigma_list": [2, 3]}
    cfg = load_run_config(_write(tmp_path, {"system": {"W": 2.0e12}, "attack": attack}))
    dumped = dump_config(cfg)
    assert json.loads(dumped) == effective_dict(cfg)
    p = tmp_path / "dumped.json"
    p.write_text(dumped)
    again = load_run_config(str(p))
    assert dump_config(again) == dumped
    assert again == cfg


def test_committed_default_config_equals_builtin_defaults():
    assert load_run_config(str(DEFAULT_CONFIG)) == load_run_config(None)


def test_dumped_sections_carry_exactly_the_accepted_keys():
    eff = effective_dict(load_run_config(None))
    assert set(eff["system"]) == set(DEFAULT_SYSTEM)
    assert set(eff["attack"]) == set(DEFAULT_ATTACK)
    assert set(eff["sweep"]) == set(DEFAULT_SWEEP)
    assert set(eff["monitor"]) == set(DEFAULT_MONITOR)
    assert set(eff["output"]) == set(DEFAULT_OUTPUT)


def test_committed_default_config_names_every_key():
    # the README calls configs/default.json the full schema
    committed = json.loads(DEFAULT_CONFIG.read_text())
    eff = effective_dict(load_run_config(None))
    assert {name: set(keys) for name, keys in committed.items()} == {
        name: set(keys) for name, keys in eff.items()
    }
