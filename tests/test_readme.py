"""Every ```python block of README.md runs as written, and its lists match the CLI.

A public signature that the README shows and a change breaks fails here,
and so does a column that the README and the command's table list apart,
or a command-line example or rule that the README and the table of cases
(``cli_cases.py``) state apart.
"""

import pathlib
import re
import shlex

import cli_cases
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


def test_every_example_of_the_readme_s_case_lists_is_a_case():
    text = README.read_text(encoding="utf-8")
    lists = re.findall(r"These are (?:usage errors|error rows):\n\n(.*?)\n\n", text, re.DOTALL)
    assert len(lists) == 2
    cases = [case.words for case in cli_cases.CASES]
    for span in re.findall(r"`([^`]+)`", "\n".join(lists)):
        words = shlex.split(span)
        # A bare flag name such as `--mass`, a token or a message is not an example.
        if len(words) > 1 and any(word.startswith("--") for word in words):
            assert any(argv[k:k + len(words)] == words
                       for argv in cases for k in range(len(argv))), span


def test_every_case_illustrates_a_rule_of_the_readme():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for case in cli_cases.CASES:
        assert case.rule in text, case.argv
