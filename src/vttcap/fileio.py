"""Crash-safe file writes shared by every artefact writer in the package.

It imports nothing from the package, so ``features``, ``tokenizer``,
``model`` and ``training`` can all use it without an import cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_path(path):
    """Yield ``path`` + ".tmp" to write; it replaces ``path`` only if the block succeeds.

    A crash or error midway leaves any previous file at ``path`` intact.
    """
    tmp = Path(str(path) + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
