"""End-to-end command-line behavior: tables, files, determinism, exit codes."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from flqkd.cli import main
from flqkd.config import MAX_SWEEP_POINTS, load_run_config

ROOT = Path(__file__).resolve().parents[1]

FAST_MONITOR = {
    "system": {"kappa": 0.5},
    "monitor": {
        "pair_rate": 2e5,
        "ase_rate_at_source": 2e5,
        "duration": 1.5,
        "trials": 2,
        "sweep_f_e": [0.5],
        "rng_seed": 4242,
    }
}


def _cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_rate_curve_table(tmp_path, capsys):
    path = _cfg(tmp_path, {"sweep": {"points": 2}})
    assert main(["rate-curve", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == [
        "ppb", "n_s", "ber", "i_ab",
        "chi_ub_active", "chi_ub_passive",
        "ske_active", "ske_passive",
        "skr_active", "skr_passive",
    ]
    assert len(rows) == 2
    assert all(len(r) == 10 for r in rows)
    # ppb = M * n_s with the default M = 22000
    assert float(rows[0][0]) == pytest.approx(22000 * float(rows[0][1]), rel=1e-9)


def test_rate_curve_zero_injection_collapses_active_passive(tmp_path, capsys):
    path = _cfg(tmp_path, {"attack": {"f_e_hat": 0.0, "sigma": 0.0}, "sweep": {"points": 4}})
    assert main(["rate-curve", "--config", path]) == 0
    _, rows = _rows(capsys.readouterr().out)
    for r in rows:
        assert r[4] == r[5] and r[6] == r[7] and r[8] == r[9]


def test_optimize_table(tmp_path, capsys):
    assert main(["optimize"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["n_sigma", "f_e_ub", "n_s_opt", "ppb_opt", "ske", "skr", "positive_key"]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert [float(r[1]) for r in rows] == pytest.approx(
        [0.0027, 0.0047, 0.0067, 0.0087, 0.0107], rel=1e-9
    )
    skrs = [float(r[5]) for r in rows]
    assert all(b < a for a, b in zip(skrs, skrs[1:]))
    assert all(r[6] == "1" for r in rows)


def test_ber_curve_table(tmp_path, capsys):
    path = _cfg(tmp_path, {"sweep": {"points": 5}})
    assert main(["ber-curve", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["ppb", "ber_alice_theory", "ber_eve_qcb"]
    alice = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(alice, alice[1:]))


def test_linear_sweep_grid(tmp_path, capsys):
    # log_scale false spaces n_s evenly and allows n_s = 0, where Alice
    # sends nothing: a coin-flip BER, no Holevo information and no key
    path = _cfg(tmp_path, {
        "sweep": {"n_s_min": 0.0, "n_s_max": 0.02, "points": 5, "log_scale": False},
        "output": {"precision": 17},
    })
    grid = [0.0, 0.005, 0.01, 0.015, 0.02]
    assert main(["rate-curve", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    column = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    assert column["n_s"] == grid
    assert column["ber"][0] == 0.5
    for name in ("chi_ub_active", "chi_ub_passive", "ske_active", "ske_passive"):
        assert column[name][0] == 0.0
    assert main(["ber-curve", "--config", path]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [float(r[0]) for r in rows] == [22000 * n_s for n_s in grid]
    assert float(rows[0][1]) == 0.5


@pytest.mark.parametrize("n_s_range", [(3e-4, 0.07), (1e-5, 1.0), (1e-15, 1.0)])
def test_log_sweep_grid_ends_are_exact(tmp_path, capsys, n_s_range):
    # a log grid from logspace alone misses the first two ranges' ends by an
    # ulp or two; the third spans more than 12 decades and keeps its points
    path = _cfg(tmp_path, {
        "sweep": {"n_s_min": n_s_range[0], "n_s_max": n_s_range[1], "points": 7},
        "output": {"precision": 17},
    })
    assert main(["rate-curve", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    n_s = [float(r[header.index("n_s")]) for r in rows]
    assert len(n_s) == 7
    assert (n_s[0], n_s[-1]) == n_s_range


def test_limit_table(capsys):
    assert main(["limit"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["kappa", "limit_bits_per_mode", "ske", "advantage_db"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.1
    assert float(rows[0][3]) > 0.0


def test_monitor_sim_table(tmp_path, capsys):
    path = _cfg(tmp_path, FAST_MONITOR)
    assert main(["monitor-sim", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["f_e_true", "mean_estimate", "std_dev", "trials", "warnings"]
    # a zero row is always prepended for background subtraction context
    assert [r[0] for r in rows] == ["0", "0.5"]
    assert all(r[3] == "2" for r in rows)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=0.15)


def test_out_and_svg_files(tmp_path, capsys):
    path = _cfg(tmp_path, FAST_MONITOR)
    out = tmp_path / "m.csv"
    svg = tmp_path / "m.svg"
    assert main(["monitor-sim", "--config", path, "--out", str(out), "--svg", str(svg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"wrote {out}" in captured.err and f"wrote {svg}" in captured.err
    text = out.read_text()
    assert text.endswith("\n") and text.startswith("f_e_true,")
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert any(el.tag.endswith("polyline") for el in root.iter())


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"])
def test_output_files_take_the_mode_the_umask_gives(tmp_path, capsys, umask, mode):
    # the mode open(path, "w") would give, not the owner-only staging file's
    out, svg = tmp_path / "l.csv", tmp_path / "l.svg"
    saved = os.umask(umask)
    try:
        assert main(["limit", "--out", str(out), "--svg", str(svg)]) == 0
    finally:
        os.umask(saved)
    capsys.readouterr()
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert stat.S_IMODE(svg.stat().st_mode) == mode


def test_repeat_runs_are_byte_identical(tmp_path):
    path = _cfg(tmp_path, FAST_MONITOR)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["monitor-sim", "--config", path, "--out", str(a)]) == 0
    assert main(["monitor-sim", "--config", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _with_seed(seed):
    return dict(FAST_MONITOR, monitor=dict(FAST_MONITOR["monitor"], rng_seed=seed))


def test_seed_override_changes_and_reproduces(tmp_path, capsys):
    outs = []
    for seed in (777, 777, 778):
        path = _cfg(tmp_path, _with_seed(seed))
        assert main(["monitor-sim", "--config", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_seed_must_fit_64_bits(tmp_path, capsys):
    for seed in (-1, 2**64):
        path = _cfg(tmp_path, _with_seed(seed))
        assert main(["monitor-sim", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "rng_seed" in err


@pytest.mark.parametrize("command", ["limit", "rate-curve"])
def test_seed_flag_is_gone(capsys, command):
    # the seed is set only by monitor.rng_seed
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_dump_config_round_trip(tmp_path, capsys):
    path = _cfg(tmp_path, {"system": {"W": 2.0e12}, "monitor": {"rng_seed": 5}})
    assert main(["rate-curve", "--config", path, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    eff = json.loads(dumped)
    assert eff["system"]["W"] == 2.0e12
    assert eff["monitor"]["rng_seed"] == 5
    path2 = tmp_path / "eff.json"
    path2.write_text(dumped)
    assert main(["rate-curve", "--config", str(path2), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_dump_config_holds_only_settable_keys(tmp_path, capsys):
    # the output paths come from the flags, and the monitor's kappa and
    # f_e_true from system.kappa and the sweep
    path = _cfg(tmp_path, FAST_MONITOR)
    argv = ["monitor-sim", "--config", path, "--out", "x.csv", "--svg", "x.svg", "--dump-config"]
    assert main(argv) == 0
    dumped = capsys.readouterr().out
    eff = json.loads(dumped)
    assert not {"kappa", "f_e_true"} & set(eff["monitor"])
    assert set(eff["output"]) == {"precision"}
    path2 = tmp_path / "eff.json"
    path2.write_text(dumped)
    assert load_run_config(str(path2)) == load_run_config(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("monitor", "kappa", 0.1),
        ("monitor", "f_e_true", 0.7),
        ("output", "csv_path", "x.csv"),
        ("output", "svg_path", "x.svg"),
        ("attack", "f_e", 0.002),
    ],
)
def test_removed_keys_are_unknown(tmp_path, capsys, section, key, value):
    path = _cfg(tmp_path, {section: {key: value}})
    assert main(["monitor-sim", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: unknown key {section}.{key}\n"
    assert list(tmp_path.iterdir()) == [Path(path)]


def test_monitor_runs_on_the_system_kappa(tmp_path, capsys):
    outs = []
    for kappa in (0.5, 0.3):
        path = _cfg(tmp_path, dict(FAST_MONITOR, system={"kappa": kappa}))
        assert main(["monitor-sim", "--config", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": {"kappa": 2.0}}')
    assert main(["rate-curve", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    syntax = tmp_path / "syntax.json"
    syntax.write_text('{"system": {,}}')
    assert main(["rate-curve", "--config", str(syntax)]) == 2
    assert "line" in capsys.readouterr().err


def test_one_trial_is_a_config_error(tmp_path, capsys):
    # the sweep's spread needs two trials
    payload = dict(FAST_MONITOR, monitor=dict(FAST_MONITOR["monitor"], trials=1))
    path = _cfg(tmp_path, payload)
    assert main(["monitor-sim", "--config", path]) == 2
    assert "config error: monitor.trials" in capsys.readouterr().err


def test_noiseless_receiver_is_a_config_error(tmp_path, capsys):
    path = _cfg(tmp_path, {"system": {"N_B": 0}})
    for command in ("optimize", "rate-curve", "limit"):
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err == "config error: N_B must be > 0, got 0.0\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runtime_validation_exits_3(tmp_path, capsys):
    # a brightness of 1e300 parses, but its covariance overflows
    path = _cfg(tmp_path, {"sweep": {"n_s_max": 1e300, "points": 2}})
    assert main(["rate-curve", "--config", path]) == 3
    assert "numerical error" in capsys.readouterr().err


def _fresh_cli(*argv):
    # a fresh interpreter, so numpy warnings would reach stderr as a user sees them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "flqkd.cli", *argv], env=env).returncode


def test_overflow_prints_only_the_error_line(tmp_path, capfd):
    path = _cfg(tmp_path, {"sweep": {"n_s_max": 1e300}})
    status = _fresh_cli("rate-curve", "--config", path)
    out, err = capfd.readouterr()
    assert status == 3
    assert (out, err) == ("", "numerical error: covariance has non-finite entries\n")


def test_ber_curve_overflow_is_silent(tmp_path, capfd):
    # Eve's Chernoff exponent overflows to inf, and exp(-inf) = 0 is its limit
    path = _cfg(tmp_path, {"sweep": {"n_s_max": 1e300}})
    status = _fresh_cli("ber-curve", "--config", path)
    out, err = capfd.readouterr()
    assert (status, err) == (0, "")
    header, rows = _rows(out)
    # n_s * n_s alone overflows above 1.4e154; ppb = 22000 n_s
    huge = [float(r[header.index("ber_eve_qcb")]) for r in rows if float(r[0]) > 22000 * 1.4e154]
    assert huge and set(huge) == {0.0}


def test_a_bound_of_one_takes_the_total_injection_limit(tmp_path, capsys):
    # 17 digits, so a bound an ulp-scale short of 1 would show
    payload = {"attack": {"f_e_hat": 0.99, "sigma": 0.1}, "sweep": {"points": 8}, "output": {"precision": 17}}
    path = _cfg(tmp_path, payload)
    assert main(["optimize", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert [float(r[header.index("f_e_ub")]) for r in rows] == [1.0] * 5
    assert main(["rate-curve", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert [float(r[header.index("chi_ub_active")]) for r in rows] == [1.0] * 8


def test_estimator_undefined_exits_4(tmp_path, capsys):
    payload = dict(FAST_MONITOR, monitor=dict(FAST_MONITOR["monitor"], pair_rate=0.0))
    path = _cfg(tmp_path, payload)
    assert main(["monitor-sim", "--config", path]) == 4
    assert "estimator undefined" in capsys.readouterr().err


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": {"kappa": 2.0}}')
    target = tmp_path / "never.csv"
    assert main(["rate-curve", "--config", str(bad), "--out", str(target)]) == 2
    assert not target.exists()
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, flag):
    # a missing directory, and a directory where the file should go
    for target in (tmp_path / "missing" / "x.out", tmp_path):
        assert main(["limit", flag, str(target)]) == 2
        assert f"config error: cannot write {target}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_failed_write_prints_nothing(tmp_path, capsys):
    # the SVG target is a directory: the table must not reach stdout either
    assert main(["limit", "--svg", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"config error: cannot write {tmp_path}: " in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [None, "kept,bytes\r\n"], ids=["new", "existing"])
def test_failed_write_creates_or_replaces_no_file(tmp_path, capsys, existing):
    # the CSV target is fine but the SVG target is a directory: the CSV is
    # neither created nor replaced
    csv = tmp_path / "keep.csv"
    if existing is not None:
        csv.write_bytes(existing.encode())
    assert main(["limit", "--out", str(csv), "--svg", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "wrote" not in err
    assert f"config error: cannot write {tmp_path}: " in err
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [csv]
        assert csv.read_bytes() == existing.encode()


@pytest.mark.parametrize("existing", [None, "kept,bytes\r\n"], ids=["new", "existing"])
@pytest.mark.parametrize("svg_name", ["same.csv", "./same.csv"], ids=["verbatim", "dotted"])
def test_out_and_svg_naming_one_file_is_a_config_error(
    tmp_path, capsys, monkeypatch, existing, svg_name
):
    # the SVG would replace the CSV it was staged beside
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "same.csv"
    if existing is not None:
        target.write_bytes(existing.encode())
    assert main(["limit", "--out", "same.csv", "--svg", svg_name]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "wrote" not in err
    assert err.startswith("config error: ") and "name the same file" in err
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == existing.encode()


NON_FINITE = [
    ("monitor-sim", '{"monitor": {"pair_rate": NaN}}', "monitor.pair_rate"),
    ("monitor-sim", '{"monitor": {"duration": Infinity}}', "monitor.duration"),
    ("limit", '{"system": {"W": Infinity}}', "system.W"),
    ("rate-curve", '{"sweep": {"n_s_max": Infinity}}', "sweep.n_s_max"),
    # JSON reads a number beyond the float range as infinite, and an integer
    # that long stays an int that no float can hold
    ("rate-curve", '{"system": {"N_B": -1e400}}', "system.N_B"),
    ("rate-curve", '{"system": {"G_B": 1%s}}' % ("0" * 400), "system.G_B"),
    # a confidence level that long would overflow n_sigma * sigma
    ("limit", '{"attack": {"n_sigma": 1%s}}' % ("0" * 400), "n_sigma"),
    ("optimize", '{"attack": {"n_sigma_list": [1%s]}}' % ("0" * 400), "attack.n_sigma_list"),
]


@pytest.mark.parametrize("command,payload,key", NON_FINITE, ids=[key for *_, key in NON_FINITE])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, payload, key):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main([command, "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "must be finite" in err


@pytest.mark.parametrize(
    "payload", ['{"monitor": {"duration": 1e20}}', '{"monitor": {"pair_rate": 1e30}}'],
    ids=["duration", "pair_rate"],
)
def test_run_too_large_to_draw_is_a_config_error(tmp_path, capsys, payload):
    # numpy's Poisson draw fails at these sizes; memory fails long before
    huge = tmp_path / "huge.json"
    huge.write_text(payload)
    assert main(["monitor-sim", "--config", str(huge)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "events" in err


@pytest.mark.parametrize("command", ["monitor-sim", "rate-curve", "optimize", "ber-curve", "limit"])
def test_committed_outputs_regenerate(tmp_path, capsys, command):
    stem = command.replace("-", "_")
    argv = [
        command,
        "--config", str(ROOT / "configs" / "default.json"),
        "--out", str(tmp_path / f"{stem}.csv"),
        "--svg", str(tmp_path / f"{stem}.svg"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    for name in (f"{stem}.csv", f"{stem}.svg"):
        assert (tmp_path / name).read_bytes() == (ROOT / "outputs" / name).read_bytes(), name


@pytest.mark.parametrize("log_scale", [True, False])
def test_chart_with_no_placeable_point_is_drawn_empty(tmp_path, capsys, log_scale):
    # at these brightnesses both BERs underflow to 0, which a log axis cannot place
    path = _cfg(tmp_path, {"sweep": {"n_s_min": 5, "n_s_max": 10, "log_scale": log_scale}})
    assert main(["ber-curve", "--config", path]) == 0
    csv_text = capsys.readouterr().out
    svg = tmp_path / "b.svg"
    assert main(["ber-curve", "--config", path, "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == csv_text
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert not any(el.tag.endswith("polyline") for el in root.iter())


@pytest.mark.parametrize("points", [10**20, MAX_SWEEP_POINTS + 1], ids=["1e20", "cap+1"])
def test_sweep_points_beyond_the_cap_are_a_config_error(tmp_path, capsys, points):
    # 1e20 points once reached numpy, which failed with a traceback
    path = _cfg(tmp_path, {"sweep": {"points": points}})
    assert main(["rate-curve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "sweep.points" in err


def test_sweep_at_the_cap_builds(tmp_path):
    # built only: a run this size takes ~4 GB
    path = _cfg(tmp_path, {"sweep": {"points": MAX_SWEEP_POINTS}})
    assert load_run_config(path).sweep.points == MAX_SWEEP_POINTS
