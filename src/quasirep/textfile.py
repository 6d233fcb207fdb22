"""The file layer of the group format, the group cache and --out:
atomic writes (temp file, then rename) and header-checked line reads."""

from __future__ import annotations

import contextlib
import os

from .errors import FileFormatError

__all__ = ["write_atomic", "read_lines"]


def write_atomic(path: str, data: bytes) -> None:
    """Write data to a temp file, then rename it over path.

    When the write or the rename fails, the temp file is removed and the
    error re-raised; an OS error is re-raised as the same error type naming
    only path, since the temp file is gone.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def read_lines(path: str, magic: str) -> list[str]:
    """The file's lines, no trailing empty one; line 1 must equal magic.

    A byte that is not UTF-8 raises FileFormatError naming its line.
    """
    # undecodable bytes become lone surrogates, which encoding back rejects
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(text[exc.start]) - 0xDC00
        raise FileFormatError(f"byte 0x{byte:02x} is not UTF-8",
                              line=text.count("\n", 0, exc.start) + 1) from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise FileFormatError(f"expected header {magic!r}", line=1)
    return lines
