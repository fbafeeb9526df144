"""The README's library quickstart runs against the current API, and its
config table is the CLI's config schema."""

import json
import re
from pathlib import Path

from eitmono import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under '## Library quickstart'"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_config_table_is_the_schema():
    """Each row of README's config table is a `cli.SCHEMA` path with its
    default (— for none), and each path has a row."""
    table = README.read_text().split("| key | default | range | meaning |\n", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| (—|`[^`]*`) \|", table.split("\n\n", 1)[0],
                      re.MULTILINE)
    documented = {key: None if default == "—" else json.loads(default.strip("`"))
                  for key, default in rows}
    assert len(rows) == len(documented)
    assert documented == {path: default for path, (_, default) in cli.SCHEMA.items()}
