"""The README's library quick start and command lines run, and its entry-point
table and flag list name only what the package and parser offer, so a changed
signature or option cannot leave it stale."""

import argparse
import math
import re
import shlex
from pathlib import Path

import cantor_riesz
from cantor_riesz import cli

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    # the paths are the repo root's; outputs go under tmp_path
    monkeypatch.chdir(ROOT)
    (block,) = re.findall(r"^```sh\n(cantor-riesz .*?)^```", README, re.S | re.M)
    commands = []
    for line in block.splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "cantor-riesz"
        args = cli.build_parser().parse_args(argv)
        assert args.config is None or Path(args.config).is_file()
        cli.load_config(args)
        commands.append(args.command)
        # acceptance test 10 runs the sweep; the others are quick
        if args.command != "sweep":
            out = argv.index("--out") + 1
            argv[out] = str(tmp_path / argv[out])
            assert cli.main(argv) == 0
            assert f"wrote {tmp_path}" in capsys.readouterr().out
    assert commands == ["sweep", "ratio", "stopping", "profile"]


def test_listed_flags_are_the_parser_options():
    subcommands = re.search(r"^Subcommands: (.*)$", README, re.M).group(1)
    common = re.search(r"Each accepts (.*?)\(`--theta` on `stopping` only\)", README, re.S).group(1)
    flags = set(re.findall(r"--[\w-]+", common))
    (action,) = (a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert re.findall(r"`(\w+)`", subcommands) == list(action.choices)
    for name, parser in action.choices.items():
        options = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        assert options == flags | ({"--theta"} if name == "stopping" else set()), name
