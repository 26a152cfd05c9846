"""Decay certificates for M0 eigenvectors, the quantity of acceptance criterion 10.

No command writes these constants, so they live beside the tests that check
them (tests/test_spectrum.py, criterion 10 in tests/test_acceptance.py)
rather than in the package.  The certificates are for the discrete M0
eigenvectors of unit l2 norm (so C_m scales like sqrt(h)) and are taken over
the window W0(y) < mu_m + 8; beyond it the computed entries are roundoff that
e^{|y|} would amplify.  C_m grows roughly like e^{mu_m}, so a cap on it is a
threshold of the caller's choosing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tfpainleve import PainleveSolution, SpectrumReport, first_difference, uniform_grid


@dataclass(frozen=True)
class DecayCertificate:
    """Smallest constants bounding an M0 eigenvector by C exp(-|y|).

    c_bound is max |u_m| e^{|y|} and c_deriv the analogous constant for the
    derivative envelope (|y|+1) e^{-|y|}, both taken over the decay window of
    decay_check.  u_m has unit discrete l2 norm, so both constants scale like
    sqrt(h); multiply by 1/sqrt(h) for the normalization integral u^2 dy = 1.
    within_bound records c_bound <= the cap the caller passed; the constants
    grow roughly like e^{mu_m}, so no cap holds uniformly in m.
    """

    m: int
    c_bound: float
    c_deriv: float
    within_bound: bool


_DECAY_WINDOW = 8.0


def decay_check(report: SpectrumReport, sol: PainleveSolution, cap: float = 100.0):
    """Decay certificates for every eigenvector in an M0 report built from ``sol``.

    The eigenvectors live on the interior nodes of ``sol.grid``, the unknowns
    of ``assemble_M0(sol)``; a report of another length is a ValueError.

    The maxima run over the window W0(y) < mu_m + 8 only, where the local decay
    rate sqrt((W0 - mu_m)/4) is below sqrt(2).  Outside it |u|'' >= 2|u| (up to
    the stencil), so by comparison |u| decays at least like e^{-(|y| - |y_edge|)}
    and in exact arithmetic the whole-grid maximum equals the window maximum.
    The computed entries out there are roundoff (|u| ~ 1e-16), which
    e^{|y|} ~ 1e17 at the grid ends would otherwise report as a constant.
    The certificates describe the discrete eigenvector on the truncated grid,
    not the eigenfunction on the whole line.
    """
    if report.operator != "M0":
        raise ValueError(f"decay certificates apply to M0 reports, got {report.operator!r}")
    y = sol.grid.nodes[1:-1]
    if report.eigenvectors.shape[0] != y.size:
        raise ValueError(
            f"eigenvectors have {report.eigenvectors.shape[0]} entries, "
            f"but the M0 operator of sol has {y.size} unknowns"
        )
    grid = uniform_grid(y[0], y[-1], y.size)
    w0 = sol.w0[1:-1]
    growth = np.exp(np.abs(y))
    deriv_growth = growth / (np.abs(y) + 1.0)
    certs = []
    for j, mu in enumerate(report.eigenvalues):
        window = w0 < mu + _DECAY_WINDOW
        u = report.eigenvectors[:, j]
        c = float(np.max((np.abs(u) * growth)[window]))
        du = first_difference(u, grid)
        cd = float(np.max((np.abs(du) * deriv_growth)[window]))
        certs.append(DecayCertificate(m=j + 1, c_bound=c, c_deriv=cd, within_bound=c <= cap))
    return tuple(certs)
