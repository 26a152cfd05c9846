"""Deterministic text output shared by result types and the command line."""

from __future__ import annotations

import contextlib
import itertools
import os

import numpy as np

# CSV rows formatted by one `%` operation; bounds the memory a block takes.
_BLOCK = 8192


def format_float(v: float) -> str:
    # 17 significant digits, enough to round-trip a double exactly
    return f"{v:.16e}"


def _write_atomic(path, chunks) -> None:
    """Write an iterable of strings through a temporary file and os.replace.

    If a write or the replace fails, the temporary file is removed and the
    error re-raised.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_lines(path, lines) -> None:
    """Write lines, each ending in a newline, atomically."""
    _write_atomic(path, ("\n".join(lines), "\n"))


def write_csv(path, header, columns) -> None:
    """Write columns (equal-length 1d arrays) under a comma-separated header.

    The body is formatted `_BLOCK` rows at a time with the same `.16e`
    conversion as `format_float`, each block going straight to the file.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or any(c.ndim != 1 for c in columns):
        raise ValueError("write_csv needs one or more 1d columns")
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must all have the same length")
    table = np.column_stack(columns)
    row = ",".join(["%.16e"] * len(columns)) + "\n"
    blocks = (table[i:i + _BLOCK] for i in range(0, len(table), _BLOCK))
    body = ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], body))
