"""Text and JSON files, and crash-safe writes, for the whole package.

Every text file is read and written here: UTF-8 reads, JSON parsing whose
invalid or too deeply nested input, or a string holding a lone surrogate
(which UTF-8 cannot write back), raises ``FormatError`` naming ``path`` or
``path:line``, JSON-lines iteration and atomic writes.  The binary VTTF and
mapped VTTC formats keep their own parsers and share ``atomic_path``.  It
imports only ``errors`` from the package, so every other module can use it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import FormatError


@contextmanager
def atomic_path(path):
    """Yield ``path`` + ".tmp" to write; it replaces ``path`` only if the block succeeds.

    A crash or error midway leaves any previous file at ``path`` intact, and
    an ``OSError`` naming the temporary file is raised naming ``path``.
    """
    tmp = Path(str(path) + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError, NotADirectoryError):  # no temporary file was made
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)
            del exc.filename2  # os.replace's second name, ``path`` itself
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through ``atomic_path``."""
    with atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def read_text(path) -> str:
    """The UTF-8 text of ``path``, every line ending read as "\\n"."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _parse_json(text: str, where):
    try:
        value = json.loads(text)
        if "\\u" in text:  # only an escape gives a lone surrogate, which UTF-8 cannot write
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except (json.JSONDecodeError, RecursionError, UnicodeEncodeError) as exc:
        raise FormatError(f"{where}: invalid JSON ({exc})") from exc


def read_json(path):
    """The one JSON document in the UTF-8 file ``path``."""
    return _parse_json(read_text(path), path)


def read_json_lines(path):
    """(``path:line``, value) for each non-blank line of the JSON-lines file ``path``."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line:
            where = f"{path}:{lineno}"
            yield where, _parse_json(line, where)
