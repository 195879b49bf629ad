"""Every ```python block of README.md runs as written, and its column lists match the CLI.

A public signature that the README shows and a change breaks fails here,
and so does a column that the README and the command's table list apart.
"""

import pathlib
import re

from cosmopair import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README.md holds no python block"
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def test_the_readme_lists_each_command_s_columns_as_its_table_holds_them():
    text = README.read_text(encoding="utf-8")
    for command, table in (("sweep", cli.SWEEP_COLUMNS), ("dynamics", cli.DYNAMICS_COLUMNS)):
        (listed,) = re.findall(rf"The `{command}` columns are\s+`([^`]+)`", text)
        assert listed.split(",") == list(table)
