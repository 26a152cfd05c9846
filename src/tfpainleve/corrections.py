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

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from ._io import write_csv
from .grids import UniformSpline, first_difference, second_difference, solve_tridiagonal
from .painleve import PainleveSolution, layer_operator

# far-field exponent of nu_n y^(beta - 2n): beta = -5/2 in d = 1 where the
# leading forcing cancels, beta = 1/2 otherwise
TAIL_EXPONENTS = {1: -2.5, 2: 0.5, 3: 0.5}

# right-tail fit window and the magnitude below which a slope fit is noise
_FIT_WINDOW = (25.0, 40.0)
_FIT_FLOOR = 1e-11


@dataclass(frozen=True, eq=False)
class CorrectionSet:
    """Layer expansion nu_0 + sum eps^(2n/3) nu_n of one dimension.

    ``profile`` holds nu_0 and its grid; ``terms`` and ``forcings`` hold the
    solved corrections nu_1..nu_N and their forcings F_1..F_N on that grid.
    """

    profile: PainleveSolution
    dimension: int
    terms: tuple
    forcings: tuple

    def __post_init__(self):
        for name in ("terms", "forcings"):
            arrs = tuple(np.asarray(a, dtype=float) for a in getattr(self, name))
            for a in arrs:
                a.setflags(write=False)
            object.__setattr__(self, name, arrs)

    @property
    def order(self) -> int:
        return len(self.terms)

    @cached_property
    def _splines(self):
        return tuple(UniformSpline(self.profile.grid, t) for t in self.terms)

    def to_csv(self, path) -> None:
        orders = range(1, self.order + 1)
        header = ["y", *(f"nu{n}" for n in orders), *(f"F{n}" for n in orders)]
        write_csv(path, header, [self.profile.grid.nodes, *self.terms, *self.forcings])


def nu0_second_derivative(sol: PainleveSolution) -> np.ndarray:
    """Curvature of the profile through its own equation, nu0'' = (nu0^3 - y nu0) / 4."""
    y = sol.grid.nodes
    return 0.25 * (sol.nu0**3 - y * sol.nu0)


def assemble_F1(sol: PainleveSolution, dimension: int) -> np.ndarray:
    """First forcing F1 = -2 d nu0' - 4 y nu0''.

    The curvature comes from the profile equation rather than from double
    differencing, so the far field of F1 is series-accurate.
    """
    check_dimension(dimension)
    y = sol.grid.nodes
    return -2.0 * dimension * sol.dnu0 - 4.0 * y * nu0_second_derivative(sol)


def check_dimension(dimension: int) -> None:
    """ValueError unless dimension is 1, 2 or 3, the radial dimensions the expansion covers."""
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")


def check_expansion(dimension: int, order: int) -> None:
    """ValueError unless ``build_corrections`` takes this dimension and order (at most 3)."""
    check_dimension(dimension)
    if not 1 <= order <= 3:
        raise ValueError(f"correction order must be between 1 and 3, got {order}")


def _linear_solve(sol: PainleveSolution, rhs: np.ndarray, right: float) -> np.ndarray:
    """Solve (-4 D2 + W0) v = rhs with v = 0 at the left end and v = right at the right."""
    h = sol.grid.spacing
    b = rhs[1:-1].copy()
    b[-1] += 4.0 * right / h**2
    v = solve_tridiagonal(layer_operator(h, sol.w0[1:-1]), b)
    return np.concatenate(([0.0], v, [right]))


def loglog_slope(x: np.ndarray, v: np.ndarray) -> float:
    """Least-squares slope of log|v| against log x; NaN when v touches zero."""
    x = np.asarray(x, dtype=float)
    v = np.abs(np.asarray(v, dtype=float))
    if np.any(v == 0.0):
        return float("nan")
    lx = np.log(x)
    lv = np.log(v)
    lx = lx - lx.mean()
    # np.sum, not @: threaded BLAS ddot costs milliseconds on long windows
    return float(np.sum(lx * (lv - lv.mean())) / np.sum(lx * lx))


def tail_fit_window(sol: PainleveSolution):
    """Right-tail fit range, ending clear of the truncation boundary.

    The Dirichlet row pins the endpoint to 0, or in d >= 2 for nu_1 to its
    far-field value (1 - d) / (W0 sqrt(y)); differencing spreads that
    truncation bump about three units into the domain (homogeneous decay rate
    sqrt(W0)/2 per unit), so fits stop at grid.b - 3.
    """
    return _FIT_WINDOW[0], min(_FIT_WINDOW[1], sol.grid.b - 3.0)


def _check_tail_slope(sol: PainleveSolution, values: np.ndarray, expected: float, label: str):
    y = sol.grid.nodes
    lower, upper = tail_fit_window(sol)
    mask = (y >= lower) & (y <= upper)
    window = values[mask]
    if np.max(np.abs(window)) < _FIT_FLOOR:
        return  # below the resolvable floor, a slope fit would measure noise
    slope = loglog_slope(y[mask], window)
    if not np.isfinite(slope) or abs(slope - expected) > 0.5:
        raise ValueError(
            f"{label}: right-tail slope {slope:.3f} outside {expected:+.2f} +- 0.5"
        )


def interaction_triples(n: int):
    """Index triples (n1, n2, n3) with all entries below n summing to n."""
    return [t for t in product(range(n), repeat=3) if sum(t) == n]


def assemble_Fn(sol: PainleveSolution, terms, n: int, dimension: int) -> np.ndarray:
    """Forcing at order n >= 2 from lower-order terms.

    F_n = - sum_{triples} nu_{n1} nu_{n2} nu_{n3} - 2 d nu_{n-1}' - 4 y nu_{n-1}''
    with the triple sum over indices below n summing to n.  Derivatives of the
    corrections are taken by differencing their samples.
    """
    check_dimension(dimension)
    if n < 2:
        raise ValueError(f"assemble_Fn starts at order 2, got {n}; use assemble_F1")
    if len(terms) < n - 1:
        raise ValueError(f"order {n} forcing needs terms 1..{n - 1}, got {len(terms)}")
    y = sol.grid.nodes

    def term(k):
        return sol.nu0 if k == 0 else terms[k - 1]

    F = np.zeros_like(y)
    for n1, n2, n3 in interaction_triples(n):
        F -= term(n1) * term(n2) * term(n3)
    prev = term(n - 1)
    F -= 2.0 * dimension * first_difference(prev, sol.grid)
    F -= 4.0 * y * second_difference(prev, sol.grid)
    return F


def build_corrections(sol: PainleveSolution, dimension: int, order: int = 2) -> CorrectionSet:
    """Run the ladder up to the requested order (at most 3).

    Validates the far-field decay rate of each resolvable correction against
    the expected exponent beta - 2n before returning the set.
    """
    check_expansion(dimension, order)
    beta = TAIL_EXPONENTS[dimension]
    terms = []
    forcings = []
    for n in range(1, order + 1):
        if n == 1:
            Fn = assemble_F1(sol, dimension)
            # far-field value (1 - d) / (W0 sqrt(y)) of nu_1 at y_max; 0 in d = 1
            right = (1 - dimension) * (1.0 / (sol.w0[-1] * np.sqrt(sol.grid.b)))
        else:
            Fn = assemble_Fn(sol, terms, n, dimension)
            right = 0.0
        nun = _linear_solve(sol, Fn, right)
        _check_tail_slope(sol, nun, beta - 2.0 * n, f"nu_{n} (d={dimension})")
        terms.append(nun)
        forcings.append(Fn)
    return CorrectionSet(profile=sol, dimension=dimension, terms=tuple(terms),
                         forcings=tuple(forcings))


def composite_nu(cset: CorrectionSet, eps: float, y):
    """Truncated layer expansion sum_{n=0}^{N} eps^(2n/3) nu_n at the given y.

    Evaluation is by cubic interpolation of the stored samples; y must lie
    inside the profile grid.
    """
    if not 0.0 < eps:
        raise ValueError(f"eps must be positive, got {eps}")
    sol = cset.profile
    sol._require_inside(y)
    y = np.asarray(y, dtype=float)
    total = sol._nu0_spline(y)
    for n, spline in enumerate(cset._splines, start=1):
        total = total + eps ** (2.0 * n / 3.0) * spline(y)
    return total if total.ndim else float(total)
