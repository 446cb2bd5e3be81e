"""The README's library quick start runs, and its entry-point table names
only what the package exports, so a changed signature cannot leave it stale."""

import math
import re
from pathlib import Path

import cantor_riesz

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    ratio, hard_pass, lemnab = capsys.readouterr().out.split()
    assert hard_pass == "True"
    assert all(math.isfinite(float(v)) and float(v) > 0 for v in (ratio, lemnab))


def test_entry_point_table_names_exports():
    table = README.split("Useful entry points:")[1].split("\n## ")[0]
    names = re.findall(r"`(\w+)`", table)
    assert len(names) >= 20
    assert [n for n in names if n not in cantor_riesz.__all__] == []
