"""The README's Python examples run as written, its config schema,
command table and denoiser table are the parsers', and its `REDProblem`
surface is the class's."""

import argparse
import json
import re
from pathlib import Path

from redlab import REDProblem
from redlab.cli import build_parser
from redlab.config import from_dict, to_dict
from redlab.presets import DENOISERS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    capsys.readouterr()


def test_readme_config_schema_lists_the_parsed_deblur_defaults():
    (block,) = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(), re.S | re.M)
    documented = json.loads(re.sub(r"//.*$", "", block, flags=re.M))
    defaults = from_dict({"problem": "deblur", "denoiser": {"name": "smoother"}})
    assert documented == to_dict(defaults)


def test_readme_command_table_lists_the_parsed_options():
    rows = re.findall(r"^\| `redlab ([\w-]+)([^`]*)` \|", README.read_text(), re.M)
    documented = {cmd: set(re.findall(r"--[\w-]+", usage)) for cmd, usage in rows}
    assert len(documented) == len(rows)
    (commands,) = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsed = {
        cmd: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for cmd, sub in commands.items()
    }
    assert documented == parsed


def test_readme_lists_the_redproblem_methods():
    (listing,) = re.findall(r"`REDProblem` exposes ([^;]*);", README.read_text())
    documented = re.findall(r"`(\w+)`", listing)
    public = {
        name for name, value in vars(REDProblem).items()
        if callable(value) and not name.startswith("_")
    }
    assert len(documented) == len(set(documented))
    assert set(documented) == public


def test_readme_denoiser_table_lists_the_parsed_parameters():
    section = README.read_text().split("\n## Denoisers\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M)
    documented = {name: set(re.findall(r"`(\w+)`", params)) for name, params in rows}
    assert len(documented) == len(rows)
    assert documented == {name: set(defaults) for name, (defaults, _make) in DENOISERS.items()}
