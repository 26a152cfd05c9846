"""Deterministic text output shared by result types and the command line."""

from __future__ import annotations

import contextlib
import os

import numpy as np


def format_float(v: float) -> str:
    # 17 significant digits, enough to round-trip a double exactly
    return f"{v:.16e}"


def write_lines(path, lines) -> None:
    """Write lines, each ending in a newline, through a temporary file and os.replace.

    If the write or the replace fails, the temporary file is removed and the
    error re-raised.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, header, columns) -> None:
    """Write columns (equal-length 1d arrays) under a comma-separated header."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    for c in columns:
        if c.size != n:
            raise ValueError("columns must all have the same length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(format_float(c[i]) for c in columns))
    write_lines(path, lines)
