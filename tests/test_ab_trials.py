"""tools/ab_trials.py: it times every pair, and its exit status says whether
the two trees gave equal results."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

from oracle_utils import ROOT


def _ab_trials(base):
    # keyrate-grid's operations take milliseconds; no bytecode is written
    # beside perfbench/workloads.py, which the tool imports
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_trials.py"), "--base", str(base),
         "--workload", "keyrate-grid", "--trials", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _assert_timed(stdout):
    assert re.search(r"^median s: base \d\.\d{5}, head \d\.\d{5}$", stdout, re.M), stdout
    assert re.search(r"^head/base: median \d+\.\d{3}, quartiles \[", stdout, re.M), stdout


def test_this_tree_against_itself_gives_equal_results():
    run = _ab_trials(ROOT)
    assert run.returncode == 0, run.stderr
    assert "keyrate-grid, seed 1: 4 pairs, results equal\n" in run.stdout
    assert run.stderr == ""
    _assert_timed(run.stdout)


def test_a_tree_whose_results_differ_is_still_timed(tmp_path):
    # the base is this tree's package with one optimizer constant changed,
    # so every optimization evaluates other points
    shutil.copytree(ROOT / "src" / "flqkd", tmp_path / "src" / "flqkd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rates = tmp_path / "src" / "flqkd" / "rates.py"
    text, edits = re.subn(r"^_ROUND_POINTS = \d+$", "_ROUND_POINTS = 17", rates.read_text(), flags=re.M)
    assert edits == 1
    rates.write_text(text)
    run = _ab_trials(tmp_path)
    assert run.returncode == 1
    assert "keyrate-grid, seed 1: 4 pairs, results differ on 4 of 4 pairs\n" in run.stdout
    _assert_timed(run.stdout)
    assert run.stderr.startswith("first difference, on (")
    assert run.stderr.count("first difference") == 1
