"""Atomic file writes: temp file in the target directory, then rename."""

from __future__ import annotations

import os


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a temp file and a rename, so that readers
    see the old file or the complete new one. The file gets mode 0o666
    minus the process umask, as open() would give it."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
