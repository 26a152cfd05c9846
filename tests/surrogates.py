"""Closed-form single-well profiles for the Bohr-Sommerfeld tests.

Both are built on the package's PotentialProfile, so they live here and not
in oracles.py, which must stay independent of tfpainleve.
"""

from __future__ import annotations

import numpy as np

from tfpainleve.semiclassics import PotentialProfile


def simplified(y_left: float = -60.0, y_right: float = 30.0) -> PotentialProfile:
    """Piecewise-linear surrogate 2y for y >= 0, -y for y <= 0."""

    def w(y):
        y = np.asarray(y, dtype=float)
        out = np.where(y >= 0.0, 2.0 * y, -y)
        return out if out.ndim else float(out)

    def dw(y):
        y = np.asarray(y, dtype=float)
        out = np.where(y >= 0.0, 2.0, -1.0)
        return out if out.ndim else float(out)

    return PotentialProfile(w, dw, 0.0, 0.0, float(y_left), float(y_right))


def harmonic(y_left: float = -50.0, y_right: float = 50.0) -> PotentialProfile:
    """Harmonic surrogate W = y^2 with the closed-form action pi mu / 2."""

    def w(y):
        y = np.asarray(y, dtype=float)
        out = y * y
        return out if out.ndim else float(out)

    def dw(y):
        y = np.asarray(y, dtype=float)
        out = 2.0 * y
        return out if out.ndim else float(out)

    return PotentialProfile(w, dw, 0.0, 0.0, float(y_left), float(y_right))
