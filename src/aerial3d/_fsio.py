"""File reading and atomic writing: the only code that reads file contents.

Bad UTF-8 or bad JSON raises a ParseError naming the path, and the line for JSONL.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator

from .errors import ParseError

# The data files shipped inside the package directory. They are read as plain
# files, so the package must be installed unzipped.
DATA_DIR = Path(__file__).parent / "data"


def read_utf8(path: str | Path) -> str:
    """A UTF-8 text file, newlines untranslated (so csv sees them as written)."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_json(path: str | Path) -> Any:
    """The JSON document a UTF-8 file holds."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8, JSONDecodeError, an int past the digit limit
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(1-based line number, decoded value) for each non-blank line of a JSONL file."""
    # bytes.splitlines breaks at \n, \r\n and \r, as text-mode reading does.
    for line_num, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            row = json.loads(line)
        except ValueError as exc:  # bad UTF-8, JSONDecodeError, an int past the digit limit
            raise ParseError(f"{path}: line {line_num}: {exc}") from None
        yield line_num, row


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write text via a temp file + rename so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    return path
