"""Atomic file writes: temp file in the target directory, then rename."""

from __future__ import annotations

import os
from collections.abc import Iterable


def atomic_write_text(path, text: str) -> None:
    """atomic_write_chunks of the one string text."""
    atomic_write_chunks(path, (text,))


def atomic_write_chunks(path, chunks: Iterable[str]) -> None:
    """Write the strings of chunks, in order, to path through a temp file and
    a rename, so that readers see the old file or the complete new one; if
    chunks raises, the temp file is removed and path is left as it was. The
    file gets mode 0o666 minus the process umask, as open() would give it."""
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
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
