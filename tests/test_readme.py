"""README's Library examples run as written and give what their comments say."""

from __future__ import annotations

import re

import pytest

from oracle_utils import ROOT

README = ROOT / "README.md"


def test_library_examples_run():
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["best"].point.skr == pytest.approx(55e6, rel=0.1)
    assert namespace["best"].n_s_opt == pytest.approx(0.0089, rel=0.1)
    assert namespace["curve"].skr.shape == (80,)
    assert namespace["chi"].shape == (80,)
