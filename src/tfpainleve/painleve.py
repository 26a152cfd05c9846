"""Connection profile of the boundary layer: the increasing Painleve-II solution.

The layer profile nu0 solves 4 nu'' + y nu - nu^3 = 0, grows like sqrt(y) on
the right, and decays to zero through an Airy-type tail on the left.  This
module computes its asymptotic series, solves the two-point problem by damped
Newton iteration, and evaluates the linearization potential W0 = 3 nu0^2 - y.
``layer_operator`` assembles -4 D2 + w, the Newton Jacobian here and, as
``assemble_M0`` with w = W0, the operator M0 of the correction ladder and the
spectrum; the ``damped_newton`` kernel also serves the ground-state solve.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from ._io import write_csv
from .grids import (Grid1D, TridiagonalOperator, UniformSpline, first_difference, record,
                    solve_tridiagonal, uniform_grid)


class ConvergenceError(RuntimeError):
    """Raised when a damped Newton iteration fails to reach its tolerance."""


def check_tol(tol, name: str = "tol") -> None:
    """ValueError unless the Newton tolerance is finite and positive; ``name`` labels it."""
    if not math.isfinite(tol):
        raise ValueError(f"{name} must be finite, got {tol}")
    if not tol > 0.0:
        raise ValueError(f"{name} must be positive, got {tol}")


def _rounding_floor(jac: TridiagonalOperator, x: np.ndarray) -> float:
    """2 eps_mach ||J||_inf ||x||_inf, the residual level that rounding alone leaves at x."""
    rows = np.abs(jac.diag) + np.pad(np.abs(jac.sub), (1, 0)) + np.pad(np.abs(jac.sup), (0, 1))
    return 2.0 * np.finfo(float).eps * float(rows.max()) * float(np.abs(x).max())


def damped_newton(residual, jacobian, x0, tol, budget, what="Newton"):
    """Newton iteration on a tridiagonal Jacobian, halving each step until the residual drops.

    ``jacobian(x)`` returns the Jacobian of ``residual`` at ``x`` as a
    ``TridiagonalOperator``; at most ``budget`` steps are taken.  When the full
    step does not lower the max-norm residual and that residual is at or below
    ``_rounding_floor`` of the Jacobian just solved with, the iteration ends at
    once as converged: halving would only re-evaluate the iterate.  Otherwise the
    step is halved up to 40 times; if none lowers the residual the iteration
    ends with a ``ConvergenceError``.  ``tol`` must pass ``check_tol``.
    Returns (x, residual max-norm, iterations).
    """
    check_tol(tol)
    x = x0
    res = residual(x)
    rnorm = float(np.abs(res).max())
    iterations = 0
    while rnorm > tol:
        if iterations >= budget:
            raise ConvergenceError(
                f"{what} stalled after {iterations} iterations, residual {rnorm:.3e}"
            )
        jac = jacobian(x)
        delta = solve_tridiagonal(jac, -res)
        step = 1.0
        for halving in range(40):
            cand = x + step * delta
            cres = residual(cand)
            cnorm = float(np.abs(cres).max())
            if cnorm < rnorm:
                break
            if halving == 0 and rnorm <= _rounding_floor(jac, x):
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
    """Right-tail value of the layer profile at y > 0, a float for a scalar y.

    ``coefficients`` are the b_n of ``bn_coefficients``.

    Warns when the requested y is small enough that the asymptotic series
    terms no longer decrease.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("tail_plus is defined for y > 0 only")
    val = np.zeros_like(y)
    prev = None
    growing = False
    for n, bn in enumerate(coefficients):
        c = bn * 2.0 ** (-1.5 * n)
        term = c * y ** ((1 - 3 * n) / 2.0)
        val += term
        mag = np.max(np.abs(term)) if term.ndim else abs(term)
        if bn != 0.0:
            if prev is not None and mag > prev:
                growing = True
            prev = mag
    if growing:
        warnings.warn("tail series terms are not decreasing at the requested y; "
                      "the asymptotic expansion is unreliable there")
    return val if val.ndim else float(val)


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


@record
class PainleveSolution:
    """Converged layer profile on its grid, with derivative and W0 samples."""

    grid: Grid1D
    nu0: np.ndarray
    dnu0: np.ndarray
    w0: np.ndarray
    residual_max: float
    newton_iterations: int

    @cached_property
    def _nu0_spline(self) -> UniformSpline:
        return UniformSpline(self.grid, self.nu0)

    def interp_nu0(self, y):
        y = np.asarray(y)
        if not np.all((y >= self.grid.a) & (y <= self.grid.b)):  # an inside test: NaN fails it
            raise ValueError(
                f"requested y outside the solution grid [{self.grid.a}, {self.grid.b}]"
            )
        return self._nu0_spline(y)

    def to_csv(self, path) -> None:
        write_csv(path, ["y", "nu0", "dnu0", "W0"],
                  [self.grid.nodes, self.nu0, self.dnu0, self.w0])


# The layer grid: the Airy tail is pinned at the left end, and the right end
# reaches the trap centre y = eps^(-2/3) for every eps >= 40^(-3/2) = 0.003953.
LAYER_WINDOW = (-20.0, 40.0)
_SERIES_TERMS = 6
_MAX_ITERATIONS = 50
# No residual reaches the smallest normal float, so the profile solve never
# stops at a tolerance: it always ends at damped_newton's rounding-floor exit.
_UNREACHABLE_TOL = np.finfo(float).tiny


def layer_operator(h: float, w: np.ndarray) -> TridiagonalOperator:
    """-4 D2 + w on interior nodes of spacing h, with zero Dirichlet data at both ends."""
    w = np.asarray(w, dtype=float)
    off = np.full(w.size - 1, -4.0 / h**2)
    return TridiagonalOperator(off, 8.0 / h**2 + w, off)


def assemble_M0(sol: PainleveSolution) -> TridiagonalOperator:
    """Dirichlet discretization of M0 = -4 d^2/dy^2 + W0 on the interior layer nodes."""
    return layer_operator(sol.grid.spacing, sol.w0[1:-1])


def _newton_residual(inner, y, h, left, right):
    nu = np.concatenate(([left], inner, [right]))
    return -(
        4.0 * (nu[:-2] - 2.0 * nu[1:-1] + nu[2:]) / h**2
        + y[1:-1] * nu[1:-1]
        - nu[1:-1] ** 3
    )


def check_window(n_nodes: int) -> None:
    """ValueError unless the layer grid has 2000+ nodes, so that its spacing is at most 0.030."""
    if n_nodes < 2000:
        raise ValueError(f"n_nodes must be at least 2000, got {n_nodes}")


def solve_hastings_mcleod(n_nodes: int = 6001) -> PainleveSolution:
    """Damped-Newton solve of 4 D2 nu + y nu - nu^3 = 0 on ``LAYER_WINDOW``, with tail pinning.

    Dirichlet values come from the asymptotic tails: tail_minus at the left
    end and the tail_plus series at the right end.  The unknowns are the interior nodes; the
    Jacobian of -(4 D2 nu + y nu - nu^3) there is ``layer_operator(h, 3 nu^2 - y)``,
    the operator M0 at the iterate.  The initial guess
    nu(y) = sqrt((y + sqrt(y^2 + 4)) / 2) interpolates between both regimes.
    The iteration always ends at ``damped_newton``'s rounding floor,
    ~eps_mach |nu| / h^2 here, on every grid.
    """
    check_window(n_nodes)
    y_min, y_max = LAYER_WINDOW
    grid = uniform_grid(y_min, y_max, n_nodes)
    y = grid.nodes
    h = grid.spacing
    left = float(tail_minus(y_min))
    right = tail_plus(y_max, bn_coefficients(_SERIES_TERMS))

    nu = np.sqrt((y + np.sqrt(y * y + 4.0)) / 2.0)
    inner, rnorm, iterations = damped_newton(
        lambda v: _newton_residual(v, y, h, left, right),
        lambda v: layer_operator(h, 3.0 * v * v - y[1:-1]),
        nu[1:-1], _UNREACHABLE_TOL, _MAX_ITERATIONS,
    )
    nu = np.concatenate(([left], inner, [right]))

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
        newton_iterations=iterations,
    )
