"""The README's command-line examples, run through cli.main byte for byte.

Every `$ quasirep ...` line in a ```text block of README.md is one example;
its expected stdout is the lines that follow, up to the next `$` line or the
end of the block. Examples elided with `...` or printing wall-clock times
are not complete, so they are skipped.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from quasirep import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_TIMING = re.compile(r"\(\d+(\.\d+)? s\)")


def _examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for every complete example in the README."""
    blocks = re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S)
    out = []
    for block in blocks:
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ quasirep "):
                continue
            command, _, expected = chunk.partition("\n")
            expected = expected.rstrip("\n") + "\n"
            if "..." in expected or _TIMING.search(expected):
                continue
            out.append((command[len("$ quasirep "):], expected))
    return out


EXAMPLES = _examples()


def test_readme_has_the_examples():
    assert [command.split()[0] for command, _ in EXAMPLES] == [
        "group", "irreps", "hom", "twirl"]


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(tmp_path, capsys, command, expected):
    code = cli.main([*shlex.split(command), "--cache-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == expected
