"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("number", range(len(BLOCKS)))
def test_readme_python_block_runs(number, capsys):
    """Each ```python block runs in a namespace of its own and writes nothing to stderr."""
    exec(compile(BLOCKS[number], f"README.md python block {number}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().err == ""
