"""Connection profile of the boundary layer: the increasing Painleve-II solution.

The layer profile nu0 solves 4 nu'' + y nu - nu^3 = 0, grows like sqrt(y) on
the right, and decays to zero through an Airy-type tail on the left.  This
module computes its asymptotic series, solves the two-point problem by damped
Newton iteration, and evaluates the linearization potential W0 = 3 nu0^2 - y.
Its ``damped_newton`` kernel also serves the ground-state solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from ._io import write_csv
from .grids import Grid1D, first_difference, make_operator, solve_tridiagonal, uniform_grid


class ConvergenceError(RuntimeError):
    """Raised when a damped Newton iteration fails to reach its tolerance."""


def damped_newton(residual, jacobian, x0, tol, max_iterations, floor=None, what="Newton"):
    """Newton iteration on a tridiagonal Jacobian, halving each step until the residual drops.

    ``jacobian(x)`` returns the (sub, diag, sup) bands at ``x``.  When the full
    step does not lower the max-norm residual and that residual is at or below
    ``floor(x)``, the iteration ends at once as converged: the iterate sits on
    its rounding floor, and halving would only re-evaluate it.  Otherwise the
    step is halved up to 40 times; if none lowers the residual the iteration
    ends with a ``ConvergenceError``.  Returns (x, residual max-norm, iterations).
    """
    x = x0
    res = residual(x)
    rnorm = float(np.abs(res).max())
    iterations = 0
    while rnorm > tol:
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"{what} stalled after {iterations} iterations, residual {rnorm:.3e}"
            )
        delta = solve_tridiagonal(make_operator(*jacobian(x)), -res)
        step = 1.0
        for halving in range(40):
            cand = x + step * delta
            cres = residual(cand)
            cnorm = float(np.abs(cres).max())
            if cnorm < rnorm:
                break
            if halving == 0 and floor is not None and rnorm <= floor(x):
                return x, rnorm, iterations
            step *= 0.5
        else:
            raise ConvergenceError(
                f"{what} damping exhausted at residual {rnorm:.3e} after {iterations} iterations"
            )
        x, res, rnorm = cand, cres, cnorm
        iterations += 1
    return x, rnorm, iterations


def bn_coefficients(terms: int) -> np.ndarray:
    """Coefficients b_0..b_terms of the right-tail series sqrt(y) * sum b_n (2y)^(-3n/2).

    Returns a read-only array; b_0 = 1, b_1 = 0.  Substituting the series into
    4 nu'' + y nu - nu^3 = 0 and collecting powers of y gives, for n >= 0,

    b_{n+2} = 4 (9 n^2 - 1) b_n
              - (3/2) sum_{m=1}^{n+1} b_m b_{n+2-m}
              - (1/2) sum_{l,m >= 1, l+m <= n+1} b_l b_m b_{n+2-l-m}

    The pair sum carries weight 3/2 because the cubic's index triples with a
    single zero entry occur in three positions each; the double sum runs over
    triples with all entries positive.  First values: 1, 0, -4, 0, -584, 0,
    -341024 (checked against direct series substitution).
    """
    if terms < 0:
        raise ValueError(f"series order must be nonnegative, got {terms}")
    b = np.zeros(terms + 1)
    b[0] = 1.0
    for n in range(0, terms - 1):
        total = 4.0 * (9 * n * n - 1) * b[n]
        pair = sum(b[m] * b[n + 2 - m] for m in range(1, n + 2))
        triple = 0.0
        for l in range(1, n + 1):
            for m in range(1, n + 2 - l):
                triple += b[l] * b[m] * b[n + 2 - l - m]
        b[n + 2] = total - 1.5 * pair - 0.5 * triple
    b.setflags(write=False)
    return b


def tail_plus(y, coefficients: np.ndarray):
    """Right-tail value and derivative of the layer profile at y > 0.

    ``coefficients`` are the b_n of ``bn_coefficients``.

    Warns when the requested y is small enough that the asymptotic series
    terms no longer decrease.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("tail_plus is defined for y > 0 only")
    val = np.zeros_like(y)
    dval = np.zeros_like(y)
    prev = None
    growing = False
    for n, bn in enumerate(coefficients):
        c = bn * 2.0 ** (-1.5 * n)
        term = c * y ** ((1 - 3 * n) / 2.0)
        val += term
        dval += c * ((1 - 3 * n) / 2.0) * y ** (-(1 + 3 * n) / 2.0)
        mag = np.max(np.abs(term)) if term.ndim else abs(term)
        if bn != 0.0:
            if prev is not None and mag > prev:
                growing = True
            prev = mag
    if growing:
        warnings.warn("tail series terms are not decreasing at the requested y; "
                      "the asymptotic expansion is unreliable there")
    if val.ndim:
        return val, dval
    return float(val), float(dval)


def tail_minus(y):
    """Left-tail leading term: pi^(-1/2) (-y)^(-1/4) exp(-(1/3) (-y)^(3/2)).

    This is the decaying Airy asymptotics of the linearized equation
    4 nu'' = -y nu written in the layer variable; the relative correction is
    O(|y|^(-3/2)).  Only the leading term is returned.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y >= 0.0):
        raise ValueError("tail_minus is defined for y < 0 only")
    if np.any(y > -1.0):
        warnings.warn("tail_minus evaluated at |y| < 1, outside its asymptotic range")
    s = -y
    val = np.pi ** -0.5 * s ** -0.25 * np.exp(-(s ** 1.5) / 3.0)
    return val if val.ndim else float(val)


def _tail_minus_deriv(y):
    y = np.asarray(y, dtype=float)
    return tail_minus(y) * (0.5 * np.sqrt(-y) - 0.25 / y)


@dataclass(frozen=True)
class PainleveSolution:
    """Converged layer profile on its grid, with derivative and W0 samples."""

    grid: Grid1D
    nu0: np.ndarray
    dnu0: np.ndarray
    w0: np.ndarray
    residual_max: float
    tol: float
    newton_iterations: int

    def __post_init__(self):
        for name in ("nu0", "dnu0", "w0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def _nu0_spline(self) -> CubicSpline:
        return CubicSpline(self.grid.nodes, self.nu0)

    @cached_property
    def _w0_spline(self) -> CubicSpline:
        return CubicSpline(self.grid.nodes, self.w0)

    def interp_nu0(self, y):
        self._require_inside(y)
        return self._nu0_spline(y)

    def _require_inside(self, y):
        y = np.asarray(y)
        if np.any(y < self.grid.a) or np.any(y > self.grid.b):
            raise ValueError(
                f"requested y outside the solution grid [{self.grid.a}, {self.grid.b}]"
            )

    def to_csv(self, path) -> None:
        write_csv(path, ["y", "nu0", "dnu0", "W0"],
                  [self.grid.nodes, self.nu0, self.dnu0, self.w0])


_SERIES_TERMS = 6
_MAX_ITERATIONS = 50


def _newton_residual(nu, y, h, left, right):
    r = np.empty_like(nu)
    r[0] = nu[0] - left
    r[-1] = nu[-1] - right
    r[1:-1] = (
        4.0 * (nu[:-2] - 2.0 * nu[1:-1] + nu[2:]) / h**2
        + y[1:-1] * nu[1:-1]
        - nu[1:-1] ** 3
    )
    return r


def solve_hastings_mcleod(
    y_min: float = -20.0,
    y_max: float = 40.0,
    n_nodes: int = 6001,
    tol: float = 1e-10,
) -> PainleveSolution:
    """Damped-Newton solve of 4 D2 nu + y nu - nu^3 = 0 with tail pinning.

    Dirichlet values come from the asymptotic tails: tail_minus at y_min and
    the tail_plus series at y_max.  The initial guess
    nu(y) = sqrt((y + sqrt(y^2 + 4)) / 2) interpolates between both regimes.
    Newton steps are halved until the max-norm residual decreases; a stall at
    the rounding floor of the second-difference stencil (relevant at fine
    spacing, where eps_mach / h^2 can exceed tol) also counts as converged.
    """
    if y_min > -15.0 or y_max < 30.0:
        raise ValueError(
            f"domain [{y_min}, {y_max}] too short; need y_min <= -15 and y_max >= 30"
        )
    if n_nodes < 2000:
        raise ValueError(f"need at least 2000 nodes to resolve the layer, got {n_nodes}")
    grid = uniform_grid(y_min, y_max, n_nodes)
    y = grid.nodes
    h = grid.spacing
    left = float(tail_minus(y_min))
    right, _ = tail_plus(y_max, bn_coefficients(_SERIES_TERMS))

    nu = np.sqrt((y + np.sqrt(y * y + 4.0)) / 2.0)
    nu[0], nu[-1] = left, right
    sub = np.full(n_nodes - 1, 4.0 / h**2)
    sup = sub.copy()
    sub[-1] = sup[0] = 0.0

    def jacobian(nu):
        diag = -8.0 / h**2 + y - 3.0 * nu * nu
        diag[0] = diag[-1] = 1.0
        return sub, diag, sup

    # the difference stencil amplifies rounding to ~eps_mach |nu| / h^2;
    # a stall at that floor is convergence, not failure
    nu, rnorm, iterations = damped_newton(
        lambda nu: _newton_residual(nu, y, h, left, right), jacobian, nu, tol, _MAX_ITERATIONS,
        floor=lambda nu: 32.0 * np.finfo(float).eps * float(np.abs(nu).max()) / h**2,
    )

    if np.any(nu <= 0.0):
        raise ConvergenceError("converged iterate is not strictly positive")
    if np.any(np.diff(nu) <= 0.0):
        raise ConvergenceError("converged iterate is not strictly increasing")
    # curvature sign equals sign(nu0^2 - y) through the equation itself
    curv_sign = np.sign(nu * nu - y)
    changes = int(np.count_nonzero(np.diff(curv_sign) != 0.0))
    if changes != 1:
        raise ConvergenceError(f"curvature changes sign {changes} times, expected exactly 1")

    dnu = first_difference(nu, grid)
    w0 = 3.0 * nu * nu - y
    return PainleveSolution(
        grid=grid,
        nu0=nu,
        dnu0=dnu,
        w0=w0,
        residual_max=rnorm,
        tol=tol,
        newton_iterations=iterations,
    )


def w0_eval(sol: PainleveSolution, y):
    """Cubic interpolation of W0 = 3 nu0^2 - y inside the solution grid."""
    sol._require_inside(y)
    out = sol._w0_spline(y)
    return out if np.ndim(out) else float(out)


def w0_min(sol: PainleveSolution):
    """Minimum of W0 with parabolic refinement through the three nearest samples.

    Returns (location, value).  The minimum sits just left of y = 0 where the
    growth of 3 nu0^2 overtakes the slope of -y.
    """
    w = sol.w0
    i = int(np.argmin(w))
    if i == 0 or i == w.size - 1:
        raise ConvergenceError("W0 minimum at the domain edge; enlarge the grid")
    y = sol.grid.nodes
    y1, y2, y3 = y[i - 1], y[i], y[i + 1]
    w1, w2, w3 = w[i - 1], w[i], w[i + 1]
    denom = w1 - 2.0 * w2 + w3
    if denom <= 0.0:
        return float(y2), float(w2)
    # uniform grid: vertex of the interpolating parabola
    h = y2 - y1
    loc = y2 + 0.5 * h * (w1 - w3) / denom
    val = w2 - 0.125 * (w1 - w3) ** 2 / denom
    return float(loc), float(val)
