"""Correction hierarchy above the layer profile.

Each order n >= 1 solves the same linear problem
    -4 nu_n'' + W0 nu_n = F_n
where F_n collects cubic interactions of lower orders and derivative terms of
order n-1.  Each order is one Dirichlet solve on the profile grid.  The left
end is 0.  In dimension d >= 2 the first correction keeps a slowly decaying
far field, nu_1 ~ (1 - d) / (W0 sqrt(y)), whose value at the right end is the
boundary value of the nu_1 solve; every other right end is 0.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

import numpy as np

from ._io import write_csv
from .grids import (UniformSpline, check_eps, first_difference, record, second_difference,
                    solve_tridiagonal)
from .painleve import LAYER_WINDOW, PainleveSolution, assemble_M0, tail_minus

# far-field exponent of nu_n y^(beta - 2n): beta = -5/2 in d = 1 where the
# leading forcing cancels, beta = 1/2 otherwise
TAIL_EXPONENTS = {1: -2.5, 2: 0.5, 3: 0.5}

# Right-tail fit range, ending clear of the truncation boundary.  The Dirichlet
# row pins the endpoint to 0, or in d >= 2 for nu_1 to its far-field value
# (1 - d) / (W0 sqrt(y)); differencing spreads that truncation bump about three
# units into the domain (homogeneous decay rate sqrt(W0)/2 per unit), so fits
# stop 3 short of the layer window's right end.
TAIL_FIT_WINDOW = (25.0, LAYER_WINDOW[1] - 3.0)


@record
class CorrectionSet:
    """Layer expansion nu_0 + sum eps^(2n/3) nu_n of one dimension.

    ``profile`` holds nu_0 and its grid; ``terms`` and ``forcings`` hold the
    solved corrections nu_1..nu_N and their forcings F_1..F_N on that grid.
    """

    profile: PainleveSolution
    dimension: int
    terms: tuple
    forcings: tuple

    @property
    def order(self) -> int:
        return len(self.terms)

    @cached_property
    def _spline(self) -> UniformSpline:
        """One spline over (nu_0, nu_1, ..., nu_N) on the profile grid."""
        return UniformSpline(self.profile.grid, (self.profile.nu0, *self.terms))

    def to_csv(self, path) -> None:
        orders = range(1, self.order + 1)
        header = ["y", *(f"nu{n}" for n in orders), *(f"F{n}" for n in orders)]
        write_csv(path, header, [self.profile.grid.nodes, *self.terms, *self.forcings])


def check_dimension(dimension: int) -> None:
    """ValueError unless dimension is 1, 2 or 3, the radial dimensions the expansion covers."""
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")


def check_expansion(dimension: int, order: int) -> None:
    """ValueError unless ``build_corrections`` takes this dimension and order (at most 3)."""
    check_dimension(dimension)
    if not 1 <= order <= 3:
        raise ValueError(f"correction order must be between 1 and 3, got {order}")


def _linear_solve(m0, h: float, rhs: np.ndarray, right: float) -> np.ndarray:
    """Solve M0 v = rhs with v = 0 at the left end and v = right at the right."""
    b = rhs[1:-1].copy()
    b[-1] += 4.0 * right / h**2
    return np.concatenate(([0.0], solve_tridiagonal(m0, b), [right]))


def loglog_slope(x: np.ndarray, v: np.ndarray) -> float:
    """Least-squares slope of log|v| against log x; NaN when v touches zero."""
    x = np.asarray(x, dtype=float)
    v = np.abs(np.asarray(v, dtype=float))
    if np.any(v == 0.0):
        return float("nan")
    lx = np.log(x)
    lv = np.log(v)
    lx = lx - lx.mean()
    # np.sum, not @: ddot rounds differently (nu_1's tail slope moves in its last bit),
    # and np.sum keeps every written slope and fit order byte-stable
    return float(np.sum(lx * (lv - lv.mean())) / np.sum(lx * lx))


def _check_tail_slope(sol: PainleveSolution, values: np.ndarray, expected: float, label: str):
    y = sol.grid.nodes
    lower, upper = TAIL_FIT_WINDOW
    mask = (y >= lower) & (y <= upper)
    slope = loglog_slope(y[mask], values[mask])
    if not np.isfinite(slope) or abs(slope - expected) > 0.5:
        raise ValueError(
            f"{label}: right-tail slope {slope:.3f} outside {expected:+.2f} +- 0.5"
        )


def interaction_triples(n: int):
    """Index triples (n1, n2, n3) with all entries below n summing to n."""
    return [t for t in product(range(n), repeat=3) if sum(t) == n]


def assemble_Fn(sol: PainleveSolution, terms, n: int, dimension: int) -> np.ndarray:
    """Forcing at order n >= 1 from lower-order terms.

    F_n = - sum_{triples} nu_{n1} nu_{n2} nu_{n3} - 2 d nu_{n-1}' - 4 y nu_{n-1}''
    with the triple sum over indices below n summing to n, empty at n = 1.
    Derivatives are differenced samples of nu_{n-1}: at n = 1 nu0' is
    ``sol.dnu0``, the ``first_difference`` the profile solve already took,
    and nu0'' = (nu0^3 - y nu0) / 4 comes from the profile equation, so that
    the far field of F_1 is series-accurate.
    """
    check_dimension(dimension)
    if not 1 <= n <= len(terms) + 1:
        raise ValueError(f"order {n} forcing needs n >= 1 and terms 1..{n - 1}, got {len(terms)}")
    y = sol.grid.nodes

    def term(k):
        return sol.nu0 if k == 0 else terms[k - 1]

    F = np.zeros_like(y)
    for n1, n2, n3 in interaction_triples(n):
        F -= term(n1) * term(n2) * term(n3)
    prev = term(n - 1)
    if n == 1:
        slope, curvature = sol.dnu0, 0.25 * (prev**3 - y * prev)
    else:
        slope, curvature = first_difference(prev, sol.grid), second_difference(prev, sol.grid)
    F -= 2.0 * dimension * slope
    F -= 4.0 * y * curvature
    return F


def build_corrections(sol: PainleveSolution, dimension: int, order: int = 2) -> CorrectionSet:
    """Run the ladder up to the requested order (at most 3).

    Every order solves with one M0, assembled once.  Validates the far-field
    decay rate of each correction against the expected exponent beta - 2n
    before returning the set.
    """
    check_expansion(dimension, order)
    beta = TAIL_EXPONENTS[dimension]
    h = sol.grid.spacing
    m0 = assemble_M0(sol)
    terms = []
    forcings = []
    for n in range(1, order + 1):
        Fn = assemble_Fn(sol, terms, n, dimension)
        # far-field value (1 - d) / (W0 sqrt(y)) of nu_1 at the right end; 0 in d = 1
        right = (1 - dimension) * (1.0 / (sol.w0[-1] * np.sqrt(sol.grid.b))) if n == 1 else 0.0
        nun = _linear_solve(m0, h, Fn, right)
        _check_tail_slope(sol, nun, beta - 2.0 * n, f"nu_{n} (d={dimension})")
        terms.append(nun)
        forcings.append(Fn)
    return CorrectionSet(profile=sol, dimension=dimension, terms=tuple(terms),
                         forcings=tuple(forcings))


def composite_nu(cset: CorrectionSet, eps: float, y):
    """Truncated layer expansion sum_{n=0}^{N} eps^(2n/3) nu_n at the given y.

    Inside the profile grid: cubic interpolation of the stored samples; left of
    it: ``tail_minus``, the decaying tail of nu_0; right of it, and NaN: a
    ValueError.  Scalars in give floats out.
    """
    check_eps(eps)
    scalar = np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = cset.profile.grid
    if not np.all(y <= grid.b):  # NaN fails this too
        raise ValueError(
            f"layer coordinate reaches y = {y.max():.2f} beyond the profile grid end "
            f"y = {grid.b:g}, which reaches the trap centre only for "
            f"eps >= {grid.b ** -1.5:.4g}"
        )
    out = np.empty_like(y)
    inside = y >= grid.a
    if np.any(inside):
        total, *terms = cset._spline(y[inside])
        for n, term in enumerate(terms, start=1):
            total = total + eps ** (2.0 * n / 3.0) * term
        out[inside] = total
    if not np.all(inside):
        out[~inside] = tail_minus(y[~inside])
    return float(out[0]) if scalar else out
