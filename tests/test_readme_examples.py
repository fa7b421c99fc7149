"""The README's command-line examples and library quickstart do what the
README says."""
import re
import shlex
from pathlib import Path

import pytest

from tipcrit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# "key": value pairs of a JSON record, each value as printed
_PAIR_RE = re.compile(r'"(\w+)": ("[^"]*"|\[[^\]]*\]|[^,}\s]+)')


def _examples():
    """``(arguments, shown output)`` of each ``$ tipcrit`` line in the
    README's Examples block; keys elided with ``...`` are simply not shown."""
    block = README.read_text().split("Examples:", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        args = shlex.split(command.removeprefix("$ tipcrit "))
        yield pytest.param(args, " ".join(shown), id=args[0])


@pytest.mark.parametrize("args, shown", list(_examples()))
def test_readme_example(capsys, args, shown):
    assert main(args) == 0
    printed = dict(_PAIR_RE.findall(capsys.readouterr().out))
    expected = dict(_PAIR_RE.findall(shown))
    assert expected
    assert {key: printed.get(key) for key in expected} == expected


def test_readme_library_quickstart(capsys):
    block = README.read_text().split("## Library quickstart", 1)[1]
    source = block.split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(source, "README.md", "exec"), scope)
    assert capsys.readouterr().out == "tips\n"
    assert scope["outcome"].variant == "tips"
    assert scope["rate"].m_c == pytest.approx(2.0, rel=1e-8)
