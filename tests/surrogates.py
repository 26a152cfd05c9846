"""Closed-form single-well profiles for the Bohr-Sommerfeld tests.

Both are certified by the package's from_function, on the same scan as any
other profile, and then given their exact well bottom (0, 0), so they live
here and not in oracles.py, which must stay independent of tfpainleve.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from tfpainleve.semiclassics import PotentialProfile, from_function


def exact_well(w, y_left: float, y_right: float) -> PotentialProfile:
    """``w`` certified on [y_left, y_right], with its well bottom set to exactly (0, 0)."""
    profile = from_function(w, y_left, y_right)
    return dataclasses.replace(profile, well_location=0.0, well_value=0.0)


def simplified(y_left: float = -60.0, y_right: float = 30.0) -> PotentialProfile:
    """Piecewise-linear surrogate 2y for y >= 0, -y for y <= 0."""

    def w(y):
        y = np.asarray(y, dtype=float)
        out = np.where(y >= 0.0, 2.0 * y, -y)
        return out if out.ndim else float(out)

    return exact_well(w, y_left, y_right)


def harmonic(y_left: float = -50.0, y_right: float = 50.0) -> PotentialProfile:
    """Harmonic surrogate W = y^2 with the closed-form action pi mu / 2."""

    def w(y):
        y = np.asarray(y, dtype=float)
        out = y * y
        return out if out.ndim else float(out)

    return exact_well(w, y_left, y_right)
