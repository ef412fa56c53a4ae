"""JSON config parsing, defaults, and canonical dumps."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from flqkd.config import DEFAULTS, dump_config, load_run_config
from flqkd.errors import ConfigError
from oracle_utils import ROOT

DEFAULT_CONFIG = ROOT / "configs" / "default.json"


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
    assert [level.n_sigma for level in cfg.confidence_levels] == [1, 2, 3, 4, 5]
    assert all(replace(level, n_sigma=1) == cfg.confidence for level in cfg.confidence_levels)
    assert cfg.settings["sweep"]["points"] == 80 and cfg.settings["sweep"]["log_scale"]
    assert cfg.settings["monitor"]["trials"] == 8
    assert cfg.settings["output"]["precision"] == 9
    assert cfg.monitor.f_e_true == 0.0


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


def test_semantic_errors_surface_as_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="kappa"):
        load_run_config(_write(tmp_path, {"system": {"kappa": 2.0}}))
    with pytest.raises(ConfigError, match="n_s_min < n_s_max"):
        load_run_config(_write(tmp_path, {"sweep": {"n_s_min": 0.5, "n_s_max": 0.1}}))
    with pytest.raises(ConfigError, match="precision"):
        load_run_config(_write(tmp_path, {"output": {"precision": 0}}))


def test_each_sweep_row_is_checked_as_the_run_it_will_make(tmp_path):
    # the f_e = 0 row is under the event cap and the 0.25 row over it: the
    # config is refused when it loads, before any row's trials run
    with pytest.raises(ConfigError, match=r"^monitor\.sweep_f_e: run expects 100001889\.246 events, "):
        load_run_config(_write(tmp_path, {"monitor": {"duration": 624.1755}}))
    with pytest.raises(ConfigError, match=r"^monitor\.sweep_f_e: f_e_true must be in \[0,1\], got -0\.5$"):
        load_run_config(_write(tmp_path, {"monitor": {"sweep_f_e": [0.5, -0.5]}}))


def test_malformed_json_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        load_run_config(_write(tmp_path, '{"system": {,}}'))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config("/nonexistent/cfg.json")


def test_n_sigma_list_validation(tmp_path):
    cfg = load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": [2, 4]}}))
    assert cfg.confidence_levels == tuple(replace(cfg.confidence, n_sigma=n) for n in (2, 4))
    with pytest.raises(ConfigError, match=r"^attack\.n_sigma_list must be a non-empty list$"):
        load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": []}}))
    with pytest.raises(ConfigError, match=r"^attack\.n_sigma_list must be a list$"):
        load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": 1}}))
    with pytest.raises(ConfigError):
        load_run_config(_write(tmp_path, {"attack": {"n_sigma_list": [0]}}))


def test_dump_is_canonical_fixed_point(tmp_path):
    attack = {"f_e_hat": 0.001, "sigma": 0.0, "n_sigma_list": [2, 3]}
    cfg = load_run_config(_write(tmp_path, {"system": {"W": 2.0e12}, "attack": attack}))
    dumped = dump_config(cfg)
    # the defaults, with the given keys over them
    expected = {section: dict(keys) for section, keys in DEFAULTS.items()}
    expected["system"]["W"] = 2.0e12
    expected["attack"].update(attack)
    assert json.loads(dumped) == expected
    p = tmp_path / "dumped.json"
    p.write_text(dumped)
    again = load_run_config(str(p))
    assert dump_config(again) == dumped
    assert again == cfg


def test_committed_default_config_equals_builtin_defaults():
    # the README calls configs/default.json the full schema: every key, at its default
    assert json.loads(DEFAULT_CONFIG.read_text()) == DEFAULTS


def test_committed_default_config_names_every_key():
    # every key the loader accepts, and no other, is in configs/default.json
    committed = json.loads(DEFAULT_CONFIG.read_text())
    dumped = json.loads(dump_config(load_run_config(None)))
    assert {name: set(keys) for name, keys in committed.items()} == {
        name: set(keys) for name, keys in dumped.items()
    }


KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys]
FLOAT_KEYS = [(section, key) for section, key in KEYS if isinstance(DEFAULTS[section][key], float)]


def _wrong_types(default):
    """Values of the wrong type for a key whose default is `default`."""
    if isinstance(default, list):
        # a non-list, and a list holding an item of the wrong type
        return [default[0], [default[0], "x"]]
    if isinstance(default, bool):
        return [1, 0.5]
    if isinstance(default, int):
        return ["1", 1.5, True]
    return ["1", True, None]


@pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
def test_every_key_refuses_a_value_of_the_wrong_type(tmp_path, section, key):
    # generated from DEFAULTS, so a key added there is checked with no new test
    for value in _wrong_types(DEFAULTS[section][key]):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
            load_run_config(_write(tmp_path, {section: {key: value}}))


@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_every_float_key_takes_an_int_as_its_float(tmp_path, section, key):
    # an int loads, or fails, exactly as the same number written as a float
    default = DEFAULTS[section][key]
    number = int(default) if default.is_integer() else 1
    outcomes = []
    for value in (number, float(number)):
        try:
            outcomes.append(dump_config(load_run_config(_write(tmp_path, {section: {key: value}}))))
        except ConfigError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# one config per rule that a section checks beyond its keys' types, breaking
# that rule and no type
RULES = [
    ("system", {"kappa": 2.0}),
    ("attack", {"sigma": -1.0}),
    ("attack", {"n_sigma_list": []}),
    ("attack", {"n_sigma_list": [0]}),
    ("sweep", {"points": 1}),
    ("monitor", {"trials": 1}),
    ("monitor", {"sweep_f_e": [2.0]}),
    ("monitor", {"duration": -1.0}),
]


@pytest.mark.parametrize(
    "section, rule", RULES, ids=[f"{s}.{k}={v}" for s, rule in RULES for k, v in rule.items()]
)
def test_a_sections_wrong_type_comes_before_its_rules(tmp_path, section, rule):
    # generated from DEFAULTS: within one section, a key of the wrong type is
    # reported before any rule of that section
    with pytest.raises(ConfigError):
        load_run_config(_write(tmp_path, {section: rule}))
    for key in (key for key in DEFAULTS[section] if key not in rule):
        for value in _wrong_types(DEFAULTS[section][key]):
            with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
                load_run_config(_write(tmp_path, {section: {**rule, key: value}}))
