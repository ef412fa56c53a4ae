"""README's Library examples and its Command line block run as written, and
give what their comments and sentences say."""

from __future__ import annotations

import re

import pytest

from flqkd.cli import main
from oracle_utils import ROOT

README = ROOT / "README.md"


def _section(title):
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n")[1].split("\n## ")[0]


def test_library_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), flags=re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["best"].point.skr == pytest.approx(55e6, rel=0.1)
    assert namespace["best"].n_s_opt == pytest.approx(0.0089, rel=0.1)
    assert namespace["curve"].skr.shape == (80,)
    assert namespace["chi"].shape == (80,)


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    section = _section("Command line")
    [block] = re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)
    # seed7.json holds what the sentence under the block says it holds
    [seed7] = re.findall(r"`seed7\.json` holds `([^`]*)`", section)
    (tmp_path / "seed7.json").write_text(seed7)
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) == 5
    files = {"seed7.json"}
    for line in lines:
        prog, *argv = line.split()
        assert prog == "flqkd"
        argv = [str(ROOT / arg) if arg == "configs/default.json" else arg for arg in argv]
        written = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--out", "--svg")]
        assert main(argv) == 0, line
        capsys.readouterr()
        for name in written:
            assert (tmp_path / name).stat().st_size > 0, (line, name)
        files.update(written)
    # a line without --out or --svg writes no file
    assert {p.name for p in tmp_path.iterdir()} == files
