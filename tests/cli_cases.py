"""Every exit case of the command line, as one table.

tests/test_cli.py runs each row twice: in process through `main()`, and
through the `flqkd` script found on PATH. A row runs in a fresh temporary
directory that is the working directory, so its paths are relative. Before
the run the directory holds `cfg.json` (the row's `config` text, when set)
and the `existing` file (name and bytes, when set). The run must give:

- `exit`, the exit code;
- an empty stdout when `stdout_empty`, else a non-empty one;
- `stderr` exactly, `stderr_has` as a substring, and `stderr_lines` lines,
  each when set;
- the directory listing `files` afterwards (when None, the listing from
  before the run), and the `existing` file's bytes unchanged.

`test` is the id of the in-process test that runs the row, so a case keeps
the id it had before the table; several rows may share one. Through the
script a row's id is its `test` id and its index among the rows under it
(`-0`, `-1`, ...), so a new row renames no other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from flqkd.config import MAX_MONITOR_TRIALS, MAX_SWEEP_POINTS


@dataclass(frozen=True)
class Case:
    test: str
    argv: str
    exit: int
    config: str | None = None
    existing: tuple[str, bytes] | None = None
    stdout_empty: bool = True
    stderr: str | None = None
    stderr_has: str | None = None
    stderr_lines: int | None = None
    files: tuple[str, ...] | None = None


MONITOR = "monitor-sim --config cfg.json"
RATE = "rate-curve --config cfg.json"
# an integer too long for any float
HUGE = "1" + "0" * 400
OVERFLOW = '{"sweep": {"n_s_max": 1e300}}'
# here M n_s, and Alice's BER argument, overflow too
OVERFLOW_ALL = '{"sweep": {"n_s_max": 1e306, "points": 3}}'
KEPT = b"kept,bytes\r\n"
NON_FINITE = "test_non_finite_numbers_are_config_errors[%s]"


def _config_error(message: str) -> str:
    return f"config error: {message}\n"


CASES = (
    # the monitor's seed is an unsigned 64-bit integer, set only in the config
    *(Case("test_seed_must_fit_64_bits", MONITOR, 2, '{"monitor": {"rng_seed": %d}}' % seed,
           stderr=_config_error(f"monitor: rng_seed must be an integer in [0, 2**64), got {seed}"))
      for seed in (-1, 2**64)),
    *(Case(f"test_seed_flag_is_gone[{command}]", f"{command} --seed 7", 2,
           stderr_has="flqkd: error: unrecognized arguments: --seed 7\n")
      for command in ("limit", "rate-curve")),
    # keys that no output read are unknown
    *(Case(f"test_removed_keys_are_unknown[{section}-{key}-{value}]", MONITOR, 2,
           json.dumps({section: {key: value}}), stderr=_config_error(f"unknown key {section}.{key}"))
      for section, key, value in (
          ("monitor", "kappa", 0.1), ("monitor", "f_e_true", 0.7), ("output", "csv_path", "x.csv"),
          ("output", "svg_path", "x.svg"), ("attack", "f_e", 0.002))),
    Case("test_removed_keys_are_unknown[attack-f_e-0.002]", RATE, 2, '{"attack": {"f_e": 0.002}}',
         stderr=_config_error("unknown key attack.f_e")),
    # a config that breaks a range, is not JSON, or is missing
    Case("test_config_error_exits_2", RATE, 2, '{"system": {"kappa": 2.0}}',
         stderr=_config_error("system: kappa must be in (0,1), got 2.0")),
    Case("test_config_error_exits_2", RATE, 2, '{"system": {,}}', stderr_has="line 1 column 13", stderr_lines=1),
    Case("test_config_error_exits_2", "rate-curve --config missing.json", 2, stderr=_config_error(
        "cannot read config missing.json: [Errno 2] No such file or directory: 'missing.json'")),
    Case("test_failed_run_leaves_no_output_file", RATE + " --out never.csv", 2, '{"system": {"kappa": 2.0}}',
         stderr=_config_error("system: kappa must be in (0,1), got 2.0")),
    # a file json cannot read: not UTF-8, an integer past Python's digit
    # limit, or arrays nested past the recursion limit
    Case("test_unreadable_json_is_a_config_error[not-utf-8]", RATE, 2, existing=("cfg.json", b"\xff\xfe{}"),
         stderr=_config_error("cfg.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    Case("test_unreadable_json_is_a_config_error[digit-limit]", MONITOR, 2,
         '{"monitor": {"trials": 1' + "0" * 5000 + "}}",
         stderr_has="config error: cfg.json: Exceeds the limit (4300", stderr_lines=1),
    Case("test_unreadable_json_is_a_config_error[nesting]", RATE, 2, "[" * 100_000,
         stderr_has="config error: cfg.json: maximum recursion depth exceeded", stderr_lines=1),
    # a repeated key would otherwise take its last value silently
    Case("test_repeated_key_is_a_config_error", RATE, 2, '{"system": {"kappa": 0.1, "kappa": 0.5}}',
         stderr=_config_error("cfg.json: duplicate key 'kappa'")),
    # the sweep's spread needs two trials, and seeding them all comes first
    Case("test_one_trial_is_a_config_error", MONITOR, 2, '{"monitor": {"trials": 1}}',
         stderr=_config_error("monitor.trials must be >= 2, got 1")),
    *(Case(f"test_monitor_trials_beyond_the_cap_are_a_config_error[{name}]", MONITOR, 2,
           '{"monitor": {"trials": %d}}' % trials,
           stderr=_config_error(f"monitor.trials must be <= {MAX_MONITOR_TRIALS}, got {trials}"))
      for name, trials in (("1e20", 10**20), ("cap+1", MAX_MONITOR_TRIALS + 1))),
    # a noiseless receiver is outside the model
    *(Case("test_noiseless_receiver_is_a_config_error", f"{command} --config cfg.json", 2,
           '{"system": {"N_B": 0}}', stderr=_config_error("system: N_B must be > 0, got 0.0"))
      for command in ("optimize", "rate-curve", "limit")),
    # an amplifier adds at least G_B*(1-kappa_B) - 1 photons of noise, 1101 at the defaults
    Case("test_amplifier_below_its_noise_floor_is_a_config_error", "optimize --config cfg.json", 2,
         '{"system": {"N_B": 1100.9}}', stderr=_config_error(
             "system: N_B must be >= G_B*(1-kappa_B) - 1 = 1101, the amplifier's quantum noise floor, got 1100.9")),
    # an overflowing brightness prints only the error line, no numpy warning,
    # except in Eve's BER, whose limit at an overflowing exponent is 0
    Case("test_runtime_validation_exits_3", RATE, 3, '{"sweep": {"n_s_max": 1e300, "points": 2}}',
         stderr="numerical error: covariance has non-finite entries\n"),
    *(Case("test_overflow_prints_only_the_error_line", RATE, 3, config,
           stderr="numerical error: covariance has non-finite entries\n")
      for config in (OVERFLOW, OVERFLOW_ALL)),
    *(Case("test_ber_curve_overflow_is_silent", "ber-curve --config cfg.json", 0, config,
           stdout_empty=False, stderr="")
      for config in (OVERFLOW, OVERFLOW_ALL)),
    Case("test_estimator_undefined_exits_4", MONITOR, 4,
         '{"system": {"kappa": 0.5}, "monitor": {"pair_rate": 0.0, "duration": 1.5, "trials": 2, "sweep_f_e": [0.5]}}',
         stderr="estimator undefined: Alice tap shows no excess coincidences; reference arm is dark or unpaired\n"),
    # an output path that cannot be written: a missing directory, or a directory
    *(Case(f"test_unwritable_output_path_is_a_config_error[{flag}]", f"limit {flag} missing/x.out", 2,
           stderr=_config_error("cannot write missing/x.out: No such file or directory"))
      for flag in ("--out", "--svg")),
    Case("test_unwritable_output_path_is_a_config_error[--out]", "limit --out .", 2,
         stderr=_config_error("cannot write .: Is a directory")),
    Case("test_failed_write_prints_nothing", "limit --svg .", 2, stderr=_config_error("cannot write .: Is a directory")),
    # a failed write neither creates nor replaces the other file
    *(Case(f"test_failed_write_creates_or_replaces_no_file[{name}]", "limit --out keep.csv --svg .", 2,
           existing=existing, stderr=_config_error("cannot write .: Is a directory"))
      for name, existing in (("new", None), ("existing", ("keep.csv", KEPT)))),
    *(Case(f"test_out_and_svg_naming_one_file_is_a_config_error[{how}-{name}]",
           f"limit --out same.csv --svg {svg}", 2, existing=existing,
           stderr=_config_error(f"--out same.csv and --svg {svg} name the same file"))
      for how, svg in (("verbatim", "same.csv"), ("dotted", "./same.csv"))
      for name, existing in (("new", None), ("existing", ("same.csv", KEPT)))),
    # an output path that names the config file would overwrite it
    *(Case(f"test_output_naming_the_config_file_is_a_config_error[{flag}]",
           f"limit --config cfg.json {flag} cfg.json", 2, existing=("cfg.json", b"{}"),
           stderr=_config_error(f"--config cfg.json and {flag} cfg.json name the same file"))
      for flag in ("--out", "--svg")),
    # every number is finite: JSON reads a number beyond the float range as
    # infinite, and a confidence level that long would overflow n_sigma * sigma
    *(Case(NON_FINITE % name.partition(":")[0], f"{command} --config cfg.json", 2, config,
           stderr=_config_error(f"{name} must be finite, got {shown}"))
      for command, config, name, shown in (
          ("monitor-sim", '{"monitor": {"pair_rate": NaN}}', "monitor.pair_rate", "nan"),
          ("monitor-sim", '{"monitor": {"duration": Infinity}}', "monitor.duration", "inf"),
          ("limit", '{"system": {"W": Infinity}}', "system.W", "inf"),
          ("rate-curve", '{"sweep": {"n_s_max": Infinity}}', "sweep.n_s_max", "inf"),
          ("rate-curve", '{"system": {"N_B": -1e400}}', "system.N_B", "-inf"),
          ("rate-curve", '{"system": {"G_B": %s}}' % HUGE, "system.G_B", "inf"),
          ("optimize", '{"attack": {"n_sigma_list": [%s]}}' % HUGE, "attack.n_sigma_list: n_sigma", HUGE))),
    Case(NON_FINITE % "n_sigma", "limit --config cfg.json", 2, '{"attack": {"n_sigma": %s}}' % HUGE,
         stderr=_config_error(f"attack: n_sigma must be finite, got {HUGE}")),
    # each sweep row is checked at its own f_e_true when the config loads
    Case("test_sweep_row_out_of_range_is_a_config_error", MONITOR, 2, '{"monitor": {"sweep_f_e": [0.5, 2.0]}}',
         stderr=_config_error("monitor.sweep_f_e: f_e_true must be in [0,1], got 2.0")),
    # numpy's Poisson draw fails at these sizes; memory fails long before
    Case("test_run_too_large_to_draw_is_a_config_error[duration]", MONITOR, 2, '{"monitor": {"duration": 1e20}}',
         stderr=_config_error("monitor: run expects 1.6e+25 events, over the 1e+08 allowed")),
    Case("test_run_too_large_to_draw_is_a_config_error[pair_rate]", MONITOR, 2, '{"monitor": {"pair_rate": 1e30}}',
         stderr=_config_error("monitor: run expects 4.8e+31 events, over the 1e+08 allowed")),
    *(Case(f"test_sweep_points_beyond_the_cap_are_a_config_error[{name}]", RATE, 2,
           '{"sweep": {"points": %d}}' % points,
           stderr=_config_error(f"sweep.points must be <= {MAX_SWEEP_POINTS}, got {points}"))
      for name, points in (("1e20", 10**20), ("cap+1", MAX_SWEEP_POINTS + 1))),
    # at these brightnesses both BERs underflow to 0, which a log axis cannot
    # place: the chart is drawn empty
    *(Case(f"test_chart_with_no_placeable_point_is_drawn_empty[{log_scale}]",
           "ber-curve --config cfg.json --svg b.svg", 0,
           '{"sweep": {"n_s_min": 5, "n_s_max": 10, "log_scale": %s}}' % str(log_scale).lower(),
           stdout_empty=False, stderr="wrote b.svg\n", files=("b.svg", "cfg.json"))
      for log_scale in (True, False)),
)
