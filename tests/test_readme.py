"""Every python block in README.md runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")
with open(README) as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out
