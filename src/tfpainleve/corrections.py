"""Correction hierarchy above the layer profile.

Each order n >= 1 solves the same linear problem
    -4 nu_n'' + W0 nu_n = F_n
where F_n collects cubic interactions of lower orders and derivative terms of
order n-1.  In dimension d >= 2 the first correction keeps a slowly decaying
far-field part that is split off explicitly so the remaining solve decays fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.interpolate import CubicSpline

from ._io import write_csv
from .grids import first_difference, make_operator, second_difference, solve_tridiagonal
from .painleve import PainleveSolution

# far-field exponent of nu_n y^(beta - 2n): beta = -5/2 in d = 1 where the
# leading forcing cancels, beta = 1/2 otherwise
TAIL_EXPONENTS = {1: -2.5, 2: 0.5, 3: 0.5}

# right-tail fit window and the magnitude below which a slope fit is noise
_FIT_WINDOW = (25.0, 40.0)
_FIT_FLOOR = 1e-11


@dataclass(frozen=True)
class CorrectionSet:
    """Solved corrections nu_1..nu_N with their forcings on the profile grid."""

    dimension: int
    order: int
    terms: tuple
    forcings: tuple
    split_part: np.ndarray | None
    beta: float
    grid_nodes: np.ndarray

    def __post_init__(self):
        for name in ("terms", "forcings"):
            arrs = tuple(np.asarray(a, dtype=float) for a in getattr(self, name))
            for a in arrs:
                a.setflags(write=False)
            object.__setattr__(self, name, arrs)
        nodes = np.asarray(self.grid_nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "grid_nodes", nodes)

    def term(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.order:
            raise ValueError(f"correction index {n} outside 1..{self.order}")
        return self.terms[n - 1]

    def forcing(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.order:
            raise ValueError(f"forcing index {n} outside 1..{self.order}")
        return self.forcings[n - 1]

    @cached_property
    def _splines(self):
        return tuple(CubicSpline(self.grid_nodes, t) for t in self.terms)

    def to_csv(self, path) -> None:
        header = ["y"]
        cols = [self.grid_nodes]
        for n in range(1, self.order + 1):
            header.append(f"nu{n}")
            cols.append(self.terms[n - 1])
        for n in range(1, self.order + 1):
            header.append(f"F{n}")
            cols.append(self.forcings[n - 1])
        write_csv(path, header, cols)


def nu0_second_derivative(sol: PainleveSolution) -> np.ndarray:
    """Curvature of the profile through its own equation, nu0'' = (nu0^3 - y nu0) / 4."""
    y = sol.grid.nodes
    return 0.25 * (sol.nu0**3 - y * sol.nu0)


def assemble_F1(sol: PainleveSolution, dimension: int) -> np.ndarray:
    """First forcing F1 = -2 d nu0' - 4 y nu0''.

    The curvature comes from the profile equation rather than from double
    differencing, so the far field of F1 is series-accurate.
    """
    _check_dimension(dimension)
    y = sol.grid.nodes
    return -2.0 * dimension * sol.dnu0 - 4.0 * y * nu0_second_derivative(sol)


def _check_dimension(dimension: int) -> None:
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")


def _cutoff(y: np.ndarray):
    """Smoothstep ramp from 0 at y = 1/2 to 1 at y = 1, with two derivatives."""
    t = np.clip(2.0 * y - 1.0, 0.0, 1.0)
    phi = t * t * (3.0 - 2.0 * t)
    inside = (y > 0.5) & (y < 1.0)
    dphi = np.where(inside, 6.0 * t * (1.0 - t) * 2.0, 0.0)
    d2phi = np.where(inside, (6.0 - 12.0 * t) * 4.0, 0.0)
    return phi, dphi, d2phi


def far_field_split(sol: PainleveSolution, dimension: int):
    """Explicit far-field part g = (1 - d) cutoff / (W0 sqrt(y)) and its curvature.

    Returns (g, g'') sampled on the grid; both vanish for y <= 1/2.  The
    curvature is assembled analytically from nu0, nu0' and the profile
    equation, not by differencing.
    """
    y = sol.grid.nodes
    phi, dphi, d2phi = _cutoff(y)
    mask = y > 0.5
    g = np.zeros_like(y)
    g2 = np.zeros_like(y)
    ym = y[mask]
    nu = sol.nu0[mask]
    dnu = sol.dnu0[mask]
    d2nu = nu0_second_derivative(sol)[mask]
    w0 = sol.w0[mask]
    dw0 = 6.0 * nu * dnu - 1.0
    d2w0 = 6.0 * dnu * dnu + 6.0 * nu * d2nu
    root = np.sqrt(ym)
    u = w0 * root
    du = dw0 * root + 0.5 * w0 / root
    d2u = d2w0 * root + dw0 / root - 0.25 * w0 / root**3
    B = 1.0 / u
    dB = -du / u**2
    d2B = (2.0 * du * du - u * d2u) / u**3
    coeff = 1.0 - dimension
    g[mask] = coeff * phi[mask] * B
    g2[mask] = coeff * (d2phi[mask] * B + 2.0 * dphi[mask] * dB + phi[mask] * d2B)
    return g, g2


def _linear_solve(sol: PainleveSolution, rhs: np.ndarray) -> np.ndarray:
    """Solve (-4 D2 + W0) v = rhs with zero Dirichlet rows at both ends."""
    h = sol.grid.spacing
    n = sol.grid.n
    sub = np.full(n - 1, -4.0 / h**2)
    sup = np.full(n - 1, -4.0 / h**2)
    diag = 8.0 / h**2 + sol.w0
    diag[0] = diag[-1] = 1.0
    sub[-1] = 0.0
    sup[0] = 0.0
    b = rhs.copy()
    b[0] = b[-1] = 0.0
    return solve_tridiagonal(make_operator(sub, diag, sup), b)


def loglog_slope(x: np.ndarray, v: np.ndarray) -> float:
    """Least-squares slope of log|v| against log x; NaN when v touches zero."""
    x = np.asarray(x, dtype=float)
    v = np.abs(np.asarray(v, dtype=float))
    if np.any(v == 0.0):
        return float("nan")
    lx = np.log(x)
    lv = np.log(v)
    lx = lx - lx.mean()
    return float((lx @ (lv - lv.mean())) / (lx @ lx))


def tail_fit_window(sol: PainleveSolution):
    """Right-tail fit range, ending clear of the truncation boundary.

    The zero-Dirichlet row pins the endpoint, and differencing spreads that
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


def solve_correction_1(sol: PainleveSolution, dimension: int):
    """First correction; in d >= 2 the far-field part is split off and re-added.

    Returns (nu1, F1, split) where split is None in d = 1.
    """
    _check_dimension(dimension)
    y = sol.grid.nodes
    F1 = assemble_F1(sol, dimension)
    if dimension == 1:
        nu1 = _linear_solve(sol, F1)
        return nu1, F1, None
    g, _ = far_field_split(sol, dimension)
    # Subtract the discrete image of g, not the analytic one: the cutoff
    # curvature jumps at the ramp knots, and any mismatch with the grid
    # stencil there feeds an O(1/h) spurious forcing into nu_tilde.  With
    # the discrete image, g + nu_tilde solves the full equation exactly.
    ftilde = F1 - (-4.0 * second_difference(g, sol.grid) + sol.w0 * g)
    nu_tilde = _linear_solve(sol, ftilde)
    return g + nu_tilde, F1, g


def interaction_triples(n: int):
    """Index triples (n1, n2, n3) with all entries below n summing to n."""
    return [t for t in product(range(n), repeat=3) if sum(t) == n]


def assemble_Fn(sol: PainleveSolution, terms, n: int, dimension: int) -> np.ndarray:
    """Forcing at order n >= 2 from lower-order terms.

    F_n = - sum_{triples} nu_{n1} nu_{n2} nu_{n3} - 2 d nu_{n-1}' - 4 y nu_{n-1}''
    with the triple sum over indices below n summing to n.  Derivatives of the
    corrections are taken by differencing their samples.
    """
    _check_dimension(dimension)
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


def solve_correction_n(sol: PainleveSolution, terms, n: int, dimension: int):
    """Solve order n >= 2; returns (nu_n, F_n)."""
    Fn = assemble_Fn(sol, terms, n, dimension)
    return _linear_solve(sol, Fn), Fn


def build_corrections(sol: PainleveSolution, dimension: int, order: int = 2) -> CorrectionSet:
    """Run the ladder up to the requested order (at most 3).

    Validates the far-field decay rate of each resolvable correction against
    the expected exponent beta - 2n before returning the set.
    """
    _check_dimension(dimension)
    if not 1 <= order <= 3:
        raise ValueError(f"correction order must be between 1 and 3, got {order}")
    beta = TAIL_EXPONENTS[dimension]
    nu1, F1, split = solve_correction_1(sol, dimension)
    terms = [nu1]
    forcings = [F1]
    for n in range(2, order + 1):
        nun, Fn = solve_correction_n(sol, terms, n, dimension)
        terms.append(nun)
        forcings.append(Fn)
    for n in range(1, order + 1):
        _check_tail_slope(sol, terms[n - 1], beta - 2.0 * n, f"nu_{n} (d={dimension})")
    return CorrectionSet(
        dimension=dimension,
        order=order,
        terms=tuple(terms),
        forcings=tuple(forcings),
        split_part=split,
        beta=beta,
        grid_nodes=sol.grid.nodes,
    )


def composite_nu(sol: PainleveSolution, cset: CorrectionSet, eps: float, y):
    """Truncated layer expansion sum_{n=0}^{N} eps^(2n/3) nu_n at the given y.

    Evaluation is by cubic interpolation of the stored samples; y must lie
    inside the profile grid.
    """
    if not 0.0 < eps:
        raise ValueError(f"eps must be positive, got {eps}")
    sol._require_inside(y)
    y = np.asarray(y, dtype=float)
    total = sol._nu0_spline(y)
    for n in range(1, cset.order + 1):
        total = total + eps ** (2.0 * n / 3.0) * cset._splines[n - 1](y)
    return total if total.ndim else float(total)
