"""The text-file layer of the group and map formats and of --out:
atomic writes (temp file, then rename) and header-checked line reads."""

from __future__ import annotations

import os
from collections.abc import Iterable

from .errors import FileFormatError

__all__ = ["write_atomic", "read_lines"]


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks in order to a temp file, then rename it over path.

    Chunks are written as they are produced, so a generator keeps only one
    chunk of a large file in memory.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def read_lines(path: str, magic: str) -> list[str]:
    """The file's lines, no trailing empty one; line 1 must equal magic."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise FileFormatError(f"expected header {magic!r}", line=1)
    return lines
