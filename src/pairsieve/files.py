"""Whole-file text reads and atomic writes, shared by the file formats.

Checkpoints and config files are read whole with read_text. Every
whole-file output (corpora, checkpoints, config files, manifests and
the CSV outputs) is written with write_atomically.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


def read_text(path, error):
    """The whole file as text; a file that is not UTF-8 raises error naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


@contextmanager
def write_atomically(path):
    """Yield a text file that replaces path only once the block completes.

    Writing goes to a temporary file of a name no other write uses,
    path + "." + 16 random hex digits + ".tmp", in the same directory,
    which os.replace then moves into place. So a write that fails midway
    leaves the previous file as it was and no temp file, and of writers
    racing on one path the last to finish wins with its whole text.
    Nothing is fsynced: this guards against a failing process, not
    against power loss.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")  # exclusive: a name taken after all is an error, not a shared file
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)
