"""The README's Python examples run as written, and its config schema is the
parser's."""

import json
import re
from pathlib import Path

from redlab.config import from_dict, to_dict

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
