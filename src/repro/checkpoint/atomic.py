"""Crash-safe file persistence: write-temp-then-rename.

Every artifact the repo persists -- ``--json`` result documents,
sweep journal entries, checkpoint files, cached serve results -- goes
through these two helpers.  The temp file lives in the target's
directory (``os.replace`` must not cross filesystems) and is fsynced
before the rename, so a reader never observes a truncated or corrupt
artifact: either the old content or the complete new one.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def write_text_atomic(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: str, payload: Any, indent: int = 2) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON
    (trailing newline included, matching the repo's artifact style)."""
    write_text_atomic(path, json.dumps(payload, indent=indent) + "\n")


def read_json(path: str) -> Any:
    """Load one JSON artifact (no error wrapping: callers decide what a
    missing/corrupt file means -- the journal treats it as absent)."""
    with open(path) as fh:
        return json.load(fh)
