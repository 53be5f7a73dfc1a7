"""The README's library tour runs as written and prints what it says."""

import re
from pathlib import Path

from sparseloc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_certifies(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    verdict, members, _partial_sum = capsys.readouterr().out.split()
    assert (verdict, members) == ("certified", "5")


def test_json_config_validates(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "config.json"
    path.write_text(block)
    assert cli.load_config(path)["pipeline"] == "certify-sparse"
