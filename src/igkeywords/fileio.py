"""Atomic file writes, so that a crash mid-write never leaves a truncated
artifact in a run directory; UTF-8 text read line by line; and one error,
naming the file, for a file that cannot be parsed."""

from __future__ import annotations

import contextlib
import errno
import os
import zipfile


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Open a UTF-8 text file, or a binary one, that replaces ``path`` when
    the block ends.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` once the block has finished; if the
    block raises, the temporary file is removed and ``path`` is untouched.
    A ``path`` that is a directory raises ``IsADirectoryError`` as the
    block opens, as ``open`` would, not once it has finished.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
    directory, name = os.path.split(os.fspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with (open(temporary, "wb") if binary
              else open(temporary, "w", encoding="utf-8")) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def utf8_lines(path, error):
    """The ``(line number, text)`` of each line of a UTF-8 file; a line that
    is not UTF-8 raises ``error`` with its number."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}: line {lineno} is not UTF-8: {exc}") \
                    from exc
            yield lineno, line


@contextlib.contextmanager
def malformed(path, what, error):
    """Raise a parse or lookup failure inside the block as ``error``, naming
    ``path`` as a malformed ``what``; a truncated or empty archive is one."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError,
            zipfile.BadZipFile, EOFError) as exc:
        raise error(f"{path}: malformed {what}: {exc!r}") from exc
