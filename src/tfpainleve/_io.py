"""Deterministic text output shared by result types and the command line.

Every float is written as ``"%.16e" % v``: 17 significant digits, enough to
round-trip a double.  CSV bodies get exactly those bytes from a numpy kernel,
`_format_rows`, a block of rows at a time; CPython's own conversion costs
about 1 us a value, since 17 digits take dtoa's bignum path.  Per value:

- The decimal exponent E starts as floor(log10|v|).  N = |v| 10^(16-E) is a
  double-double product (Veltkamp split and Dekker's TwoProduct against 10^k
  held as hi + lo), good to about 1e-14; the table of 10^k is built from
  exact integers on first use.
- log10 can be one off next to a power of ten, so E is corrected from the
  unrounded floor of N (below 10^16: E - 1; from 10^17 on: E + 1) and N is
  rounded only then.  A rounding that carries N to 10^17 writes 10^16 and
  E + 1.  Taking E from the rounded N instead would write 1e-280, which is
  9.9999999999999996e-281, as 1.0000000000000000e-280.
- Sign, digits and a 2- or 3-digit exponent go into fixed 25-byte slots, and
  one mask drops the pad bytes.

Values the kernel does not settle go through ``%`` one at a time: NaN, +-inf,
zero, subnormals, |v| outside [1e-270, 1e270] (where the split or the low
parts of 10^k would leave the normal range), and every value whose scaled
fraction lies within 1e-6 of .5, where the product's error could decide the
rounding (exact ties round half to even).  A fraction next to an integer
needs no fallback: a floor one off there rounds to the same N, and at 10^16
or 10^17 the carry rule gives the same digits and exponent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os

import numpy as np

# CSV rows formatted per kernel call; sized for the kernel's temporaries, a
# dozen arrays of 8 bytes per value, which add to the run's peak memory.
_BLOCK = 2048
_SLOT = 25  # sign, digit, '.', 16 digits, 'e', sign, 3 exponent digits, separator
_LOW, _HIGH = 1e-270, 1e270
_TIE = 1e-6
_K = 260  # the power table holds 10^k for -_K <= k <= 290
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for doubles


def format_float(v: float) -> str:
    # 17 significant digits, enough to round-trip a double exactly
    return f"{v:.16e}"


@functools.cache
def _tables():
    """Rows hi, hi_hi, hi_lo, lo of 10^k; 4-digit groups; exponent fields."""
    pows = []
    for k in range(-_K, 291):
        p, q = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = p / q  # int / int is correctly rounded, and so is the remainder below
        n, d = hi.as_integer_ratio()
        pows.append((hi, (p * d - n * q) / (q * d)))
    hi, lo = np.array(pows).T
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    quads = quads.astype(np.uint8).view(np.uint32).ravel()
    # sign, then the exponent's digits right-aligned in 3 bytes, pad byte 0
    exps = [b"%+03d" % e for e in range(-300, 301)]
    exps = np.array([s[:1] + s[1:].rjust(3, b"\0") for s in exps]).view(np.uint32)
    tables = np.array([hi, hi_hi, hi - hi_hi, lo]), quads, exps
    for t in tables:
        t.flags.writeable = False  # one copy serves every call
    return tables


def _scaled(a, k):
    """Integer part and fraction of a 10^k, for a 10^k near [1e16, 1e17)."""
    hi, hi_hi, hi_lo, lo = (row.take(k + _K) for row in _tables()[0])
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    # p + (TwoProduct error) is a hi exactly, a lo adds the rest of 10^k;
    # p >= 2^53 is an integer whenever the result lies in range
    t = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    ft = np.floor(t)
    return p.astype(np.int64) + ft.astype(np.int64), t - ft


def _format_rows(block) -> str:
    """The CSV text of a 2d float block: ``"%.16e"`` values, ',' between, newline after."""
    _, quads, exps = _tables()
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= _LOW) & (a <= _HIGH)  # False for 0, subnormals, inf and NaN
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, 16 - e)
    shift = (n >= 10**17).astype(np.int64) - (n < 10**16)
    fix = np.flatnonzero(shift)
    if fix.size:
        e[fix] += shift[fix]
        n[fix], f[fix] = _scaled(a[fix], 16 - e[fix])
    fast &= np.abs(f - 0.5) >= _TIE
    n += f > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    e += carry

    buf = np.zeros((v.size, _SLOT), np.uint8)
    buf[np.signbit(v), 0] = ord("-")
    lead, rest = np.divmod(n, 10**16)
    buf[:, 1] = lead + ord("0")
    buf[:, 2] = ord(".")
    halves = np.empty((v.size, 2), np.int32)
    halves[:, 0], halves[:, 1] = np.divmod(rest, 10**8)
    groups = np.stack(np.divmod(halves, 10**4), axis=2)
    buf[:, 3:19] = quads.take(groups).view(np.uint8).reshape(-1, 16)
    buf[:, 19] = ord("e")
    buf[:, 20:24] = exps.take(e + 300).view(np.uint8).reshape(-1, 4)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.16e" % x for x in v[slow].tolist()], dtype="S24")
        buf[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    seps = buf.reshape(*block.shape, _SLOT)[..., -1]
    seps[...] = ord(",")
    seps[:, -1] = ord("\n")
    buf = buf.ravel()
    return buf[buf != 0].tobytes().decode("ascii")


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

    The body is formatted `_BLOCK` rows at a time by `_format_rows`, with the
    bytes of `format_float`, each block going straight to the file.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or any(c.ndim != 1 for c in columns):
        raise ValueError("write_csv needs one or more 1d columns")
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must all have the same length")
    table = np.column_stack(columns)
    blocks = (table[i:i + _BLOCK] for i in range(0, len(table), _BLOCK))
    body = (_format_rows(b) for b in blocks)
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], body))
