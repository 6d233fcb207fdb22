"""The README's examples: command lines byte for byte, Python by value.

Every `$ quasirep ...` line in a ```text block of README.md is one example;
its expected stdout is the lines that follow, up to the next `$` line or the
end of the block. Examples elided with `...` or printing wall-clock times
are not complete, so they are skipped.

The ```python blocks run in order in one namespace. An expression statement
whose trailing comment begins with a number must evaluate to that number at
relative 1e-12.
"""

from __future__ import annotations

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from quasirep import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_TIMING = re.compile(r"\(\d+(\.\d+)? s\)")
_NUMBER = re.compile(r"#\s*([-+]?\d[\d.]*(?:e[-+]?\d+)?)")


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


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _numbered_comments(source: str) -> dict[int, float]:
    """{line number: value} for each comment that begins with a number."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        match = _NUMBER.match(tok.string) if tok.type == tokenize.COMMENT else None
        if match:
            out[tok.start[0]] = float(match.group(1))
    return out


def test_readme_python_values():
    namespace: dict = {}
    checked = []
    for source in _python_blocks():
        expected = _numbered_comments(source)
        for stmt in ast.parse(source).body:
            code = ast.get_source_segment(source, stmt)
            if isinstance(stmt, ast.Expr) and stmt.end_lineno in expected:
                value = eval(code, namespace)
                assert value == pytest.approx(expected[stmt.end_lineno], rel=1e-12), code
                checked.append(code)
            else:
                exec(code, namespace)
    assert checked == ["approx.defect_direct(rho, table).defect",
                       "approx.defect_direct(rho, table).agreement_prob",
                       "report.defect", "report.agreement_prob", "report.cor1_bound"]
