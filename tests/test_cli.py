"""End-to-end command-line behavior: tables, files, determinism, exit codes."""

from __future__ import annotations

import json
import os
import shutil
import stat
import subprocess
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from flqkd.cli import main
from flqkd.config import MAX_MONITOR_TRIALS, MAX_SWEEP_POINTS, load_run_config
from cli_cases import CASES

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
    assert header == ["kappa", "limit_bits_per_mode", "ske", "advantage_db", "positive_key"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.1
    assert float(rows[0][3]) > 0.0
    assert rows[0][4] == "1"


def test_limit_flags_an_optimum_with_no_key(tmp_path, capsys):
    # a known f_E of 0.3 leaves no key at any brightness, as optimize reports
    path = _cfg(tmp_path, {"system": {"N_B": 9.7e5}, "attack": {"f_e_hat": 0.3, "sigma": 0}})
    assert main(["limit", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert float(rows[0][header.index("ske")]) < 0.0
    assert rows[0][header.index("advantage_db")] == "nan"
    assert rows[0][header.index("positive_key")] == "0"
    assert main(["optimize", "--config", path]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert {r[header.index("positive_key")] for r in rows} == {"0"}


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


def test_writing_output_files_leaves_the_umask_alone(tmp_path, monkeypatch, capsys):
    # the umask is process-wide, so a run in process must not set it, even
    # for a moment
    calls = []
    monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or 0o022)
    out, svg = tmp_path / "l.csv", tmp_path / "l.svg"
    assert main(["limit", "--out", str(out), "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert calls == []
    assert out.exists() and svg.exists()


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


def test_monitor_runs_on_the_system_kappa(tmp_path, capsys):
    outs = []
    for kappa in (0.5, 0.3):
        path = _cfg(tmp_path, dict(FAST_MONITOR, system={"kappa": kappa}))
        assert main(["monitor-sim", "--config", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


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


def test_sweep_at_the_cap_builds(tmp_path):
    # built only: a run this size takes ~4 GB
    path = _cfg(tmp_path, {"sweep": {"points": MAX_SWEEP_POINTS}})
    assert load_run_config(path).sweep.points == MAX_SWEEP_POINTS


def test_trials_at_the_cap_build(tmp_path):
    # built only: a sweep this size takes hours
    path = _cfg(tmp_path, {"monitor": {"trials": MAX_MONITOR_TRIALS}})
    assert load_run_config(path).monitor_trials == MAX_MONITOR_TRIALS


def test_ber_curve_overflow_gives_eve_a_zero_ber(tmp_path, capsys):
    # Eve's Chernoff exponent overflows to inf, and exp(-inf) = 0 is its limit
    main(["ber-curve", "--config", _cfg(tmp_path, {"sweep": {"n_s_max": 1e300}})])
    header, rows = _rows(capsys.readouterr().out)
    # n_s * n_s alone overflows above 1.4e154; ppb = 22000 n_s
    huge = [float(r[header.index("ber_eve_qcb")]) for r in rows if float(r[0]) > 22000 * 1.4e154]
    assert huge and set(huge) == {0.0}


@pytest.mark.parametrize("log_scale", [True, False])
def test_empty_chart_has_no_line(tmp_path, capsys, log_scale):
    # the table's rows check the run; this checks what the chart holds
    path = _cfg(tmp_path, {"sweep": {"n_s_min": 5, "n_s_max": 10, "log_scale": log_scale}})
    main(["ber-curve", "--config", path])
    csv_text = capsys.readouterr().out
    svg = tmp_path / "b.svg"
    main(["ber-curve", "--config", path, "--svg", str(svg)])
    assert capsys.readouterr().out == csv_text
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert not any(el.tag.endswith("polyline") for el in root.iter())


def _listing(directory):
    return tuple(sorted(str(p.relative_to(directory)) for p in directory.rglob("*")))


def run_case(case, cwd, run):
    """Run one row of the exit-case table in the fresh directory cwd, with
    run(argv, cwd) -> (exit code, stdout, stderr), and check every column."""
    cwd.mkdir(exist_ok=True)
    if case.config is not None:
        (cwd / "cfg.json").write_text(case.config)
    if case.existing is not None:
        name, data = case.existing
        (cwd / name).write_bytes(data)
    before = _listing(cwd)
    code, out, err = run(case.argv.split(), cwd)
    assert code == case.exit, err
    assert (out == "") == case.stdout_empty
    if case.stderr is not None:
        assert err == case.stderr
    if case.stderr_has is not None:
        assert case.stderr_has in err
    if case.stderr_lines is not None:
        assert len(err.splitlines()) == case.stderr_lines
    assert _listing(cwd) == (before if case.files is None else case.files)
    if case.existing is not None:
        assert (cwd / name).read_bytes() == data


def _in_process(monkeypatch, capsys):
    """A runner calling main(); argparse's SystemExit gives its exit code,
    and any warning fails the row."""

    def run(argv, cwd):
        monkeypatch.chdir(cwd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert [str(w.message) for w in caught] == []
        return (code, *capsys.readouterr())

    return run


def _script(argv, cwd):
    """A runner through the flqkd script on PATH, as installed by pip."""
    script = shutil.which("flqkd")
    if script is None:
        pytest.skip("no flqkd script on PATH")
    proc = subprocess.run([script, *argv], cwd=cwd, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


COMMANDS = ["monitor-sim", "rate-curve", "optimize", "ber-curve", "limit"]


def _regenerate(command, cwd, run):
    """Run command on configs/default.json with run(argv, cwd), once to
    stdout and once to --out and --svg files, and check each against the
    committed output."""
    stem = command.replace("-", "_")
    argv = [command, "--config", str(ROOT / "configs" / "default.json")]
    assert run(argv, cwd) == (0, (ROOT / "outputs" / f"{stem}.csv").read_bytes().decode(), "")
    code, out, err = run([*argv, "--out", f"{stem}.csv", "--svg", f"{stem}.svg"], cwd)
    assert (code, out) == (0, ""), err
    for name in (f"{stem}.csv", f"{stem}.svg"):
        assert (cwd / name).read_bytes() == (ROOT / "outputs" / name).read_bytes(), name


@pytest.mark.parametrize("command", COMMANDS)
def test_committed_outputs_regenerate(tmp_path, monkeypatch, capsys, command):
    _regenerate(command, tmp_path, _in_process(monkeypatch, capsys))


@pytest.mark.parametrize("command", COMMANDS)
def test_committed_outputs_regenerate_through_the_script(tmp_path, command):
    _regenerate(command, tmp_path, _script)


def _in_process_test(name):
    """The in-process test `name`, over the rows filed under it, or one case
    per parameter for rows filed under name[parameter]."""
    groups = {}
    for case in CASES:
        base, _, param = case.test.partition("[")
        if base == name:
            groups.setdefault(param[:-1], []).append(case)

    def test(tmp_path, monkeypatch, capsys, rows):
        run = _in_process(monkeypatch, capsys)
        for n, case in enumerate(rows):
            run_case(case, tmp_path / str(n), run)

    def plain(tmp_path, monkeypatch, capsys):
        test(tmp_path, monkeypatch, capsys, groups[""])

    if list(groups) == [""]:
        return plain
    return pytest.mark.parametrize("rows", list(groups.values()), ids=list(groups))(test)


# each row runs in process under its `test` id, so a case keeps the id it had
# before the table, and a new case names its own
for _name in dict.fromkeys(case.test.partition("[")[0] for case in CASES):
    globals()[_name] = _in_process_test(_name)


# through the script a row's id is its `test` id and its index among the
# rows under that id, so appending a row renames none
_SCRIPT_IDS = [f"{case.test}-{sum(c.test == case.test for c in CASES[:n])}" for n, case in enumerate(CASES)]
assert len(set(_SCRIPT_IDS)) == len(_SCRIPT_IDS), "exit-case ids must be unique"


@pytest.mark.parametrize("case", CASES, ids=_SCRIPT_IDS)
def test_exit_case_through_the_script(tmp_path, case):
    run_case(case, tmp_path, _script)
