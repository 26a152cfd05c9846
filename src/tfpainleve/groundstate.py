"""Radial ground states of the trapped cubic problem and composite approximations.

The profile eta(r) >= 0 solves
    eps^2 (eta'' + (d-1)/r eta') + (1 - r^2) eta - eta^3 = 0
on [0, r_max] with a symmetry condition at the origin and eta(r_max) = 0;
its Newton Jacobian ``trap_operator`` is the operator L+ of ``spectrum``.
The composite approximation transplants the layer expansion back to the trap
coordinate; comparing the two at shrinking eps measures the remainder order.
"""

from __future__ import annotations

import math

import numpy as np

from ._io import write_csv
from .corrections import CorrectionSet, check_dimension, composite_nu, loglog_slope
from .grids import (Grid1D, TridiagonalOperator, check_positive, first_difference, record,
                    to_boundary_layer, uniform_grid)
from .painleve import LAYER_WINDOW, ConvergenceError, damped_newton

_MAX_ITERATIONS = 60
_NEGATIVE_SLACK = 1e-12


@record
class GroundState:
    """Converged radial profile for one (eps, dimension) pair."""

    eps: float
    dimension: int
    grid: Grid1D
    eta: np.ndarray
    residual_max: float
    newton_iterations: int
    composite: np.ndarray  # the composite approximation on the nodes, the Newton seed

    def to_csv(self, path) -> None:
        write_csv(path, ["r", "eta", "composite", "abs_diff"],
                  [self.grid.nodes, self.eta, self.composite, np.abs(self.eta - self.composite)])


def default_grid(eps: float, nodes_per_layer: int = 40) -> Grid1D:
    """The trap grid: uniform on [0, r_max], r_max = max(2.5, 1 + 6 eps^(2/3)).

    r_max lies past the decay region beyond r = 1; each layer width eps^(2/3)
    gets ``nodes_per_layer`` nodes, and the grid at least 201.
    """
    check_positive(eps, "eps")
    width = eps ** (2.0 / 3.0)
    r_max = max(2.5, 1.0 + 6.0 * width)
    n = max(int(math.ceil(r_max * nodes_per_layer / width)) + 1, 201)
    return uniform_grid(0.0, r_max, n)


def trap_operator(eps: float, d: int, grid: Grid1D, eta: np.ndarray) -> TridiagonalOperator:
    """L+ = -eps^2 (D2 + (d-1)/r D) + 3 eta^2 - 1 + r^2 on the nodes r < r_max.

    ``eta`` holds the profile on those nodes; it vanishes at r_max.  The
    origin row is the regular limit -eps^2 d D2, with the ghost node
    eta(-h) = eta(h) doubling its super-diagonal.  This is the Jacobian of
    ``_residual``.
    """
    r = grid.nodes[:-1]
    c = eps * eps / grid.spacing**2
    drift = np.zeros(r.size)
    drift[1:] = eps * eps * (d - 1.0) / (2.0 * grid.spacing * r[1:])
    diag = 2.0 * c + (3.0 * eta**2 - 1.0 + r * r)
    diag[0] += 2.0 * (d - 1.0) * c
    sup = -(c + drift[:-1])
    sup[0] = -2.0 * d * c
    return TridiagonalOperator(-(c - drift[1:]), diag, sup)


def _residual(eta, r, h, eps, d):
    # -(eps^2 Laplacian + (1 - r^2) eta - eta^3) on the nodes r < r_max
    eta = np.append(eta, 0.0)
    res = np.empty(eta.size - 1)
    e2 = eps * eps
    lap = (eta[:-2] - 2.0 * eta[1:-1] + eta[2:]) / h**2
    drift = (eta[2:] - eta[:-2]) / (2.0 * h) * ((d - 1.0) / r[1:-1])
    res[1:] = -(e2 * (lap + drift) + (1.0 - r[1:-1] ** 2) * eta[1:-1] - eta[1:-1] ** 3)
    # r = 0: regularity turns the radial Laplacian into d * eta''(0)
    res[0] = -(e2 * d * 2.0 * (eta[1] - eta[0]) / h**2 + eta[0] - eta[0] ** 3)
    return res


def check_ground_state(eps: float, dimension: int, nodes_per_layer: int) -> None:
    """ValueError unless ``solve_ground_state`` takes these inputs.

    A positive state exists only for eps * dimension < 1.  At 20 or more
    nodes per layer width, ``default_grid`` resolves the eps^(2/3) layer.
    The composite reaches the centre r = 0, at y = eps^(-2/3), only if the
    right end of ``LAYER_WINDOW`` lies beyond it: eps >= 40^(-3/2) = 0.003953.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps values must lie in (0, 0.5], got {eps}")
    if eps * dimension >= 1.0:
        raise ValueError(
            f"no positive ground state for eps * dimension >= 1, got eps={eps:g}, "
            f"dimension={dimension}"
        )
    if nodes_per_layer < 20:
        raise ValueError(f"nodes_per_layer must be at least 20, got {nodes_per_layer}")
    y_centre = to_boundary_layer(0.0, eps)
    if not y_centre <= LAYER_WINDOW[1]:
        raise ValueError(f"eps={eps:g} maps r = 0 to y = {y_centre:.2f}, beyond the layer "
                         f"window end y = {LAYER_WINDOW[1]:g}")


def solve_ground_state(
    eps: float,
    cset: CorrectionSet,
    tol: float = 1e-8,
    nodes_per_layer: int = 40,
) -> GroundState:
    """Damped-Newton solve for the positive radial profile, seeded with the composite.

    The dimension is that of ``cset``; ``check_ground_state`` states the
    accepted inputs.  The grid is ``default_grid``; the profile vanishes at its
    end.  The initial guess is the composite approximation of ``cset``, kept on
    all nodes as the result's ``composite``; each Newton step solves with
    ``trap_operator``, the operator L+ at the iterate.
    """
    dimension = cset.dimension
    check_ground_state(eps, dimension, nodes_per_layer)
    grid = default_grid(eps, nodes_per_layer)
    h = grid.spacing
    r = grid.nodes

    composite = composite_eta(cset, eps, r)
    eta, rnorm, iterations = damped_newton(
        lambda eta: _residual(eta, r, h, eps, dimension),
        lambda eta: trap_operator(eps, dimension, grid, eta),
        composite[:-1], tol, _MAX_ITERATIONS, what=f"ground state Newton at eps={eps:g}",
    )
    eta = np.append(eta, 0.0)

    if np.any(eta < -_NEGATIVE_SLACK):
        raise ConvergenceError("ground state lost positivity beyond rounding slack")
    eta = np.maximum(eta, 0.0)
    if float(eta.max()) > 1.0 + 10.0 * tol:
        raise ConvergenceError(f"ground state exceeds the bulk bound: max {eta.max():.6f}")
    return GroundState(
        eps=eps,
        dimension=dimension,
        grid=grid,
        eta=eta,
        residual_max=rnorm,
        newton_iterations=iterations,
        composite=composite,
    )


def eps_ladder(eps_list) -> list:
    """eps_list in descending order; ValueError when it is empty or repeats a value."""
    eps_desc = sorted(eps_list, reverse=True)
    if not eps_desc:
        raise ValueError("empty eps list")
    if any(a == b for a, b in zip(eps_desc, eps_desc[1:])):
        raise ValueError(f"the eps ladder needs distinct values, got {tuple(eps_list)}")
    return eps_desc


def ground_state_ladder(cset: CorrectionSet, eps_list, **solve_kwargs):
    """``solve_ground_state`` over ``eps_ladder(eps_list)``, which runs before the first solve."""
    return (solve_ground_state(eps, cset, **solve_kwargs) for eps in eps_ladder(eps_list))


_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def energy_of(eps: float, dimension: int, grid: Grid1D, eta: np.ndarray) -> float:
    """Trap energy of a radial profile on a grid from r = 0 (trapezoid quadrature).

    E = |S^{d-1}| int g(r) r^{d-1} dr,  g = eps^2 eta'^2 + (r^2 - 1) eta^2 + eta^4 / 2

    In d = 2 the integrand g r has slope g(0) at the origin, so the
    Euler-Maclaurin endpoint term h^2/12 g(0) is added; in d = 1 and 3 that
    slope is 0, and the profile decays at the far end.
    """
    check_dimension(dimension)
    r = grid.nodes
    deta = first_difference(eta, grid)
    density = eps * eps * deta**2 + (r * r - 1.0) * eta * eta + 0.5 * eta**4
    total = np.trapezoid(density * r ** (dimension - 1), r)
    if dimension == 2:
        total += grid.spacing**2 / 12.0 * density[0]
    return float(_SURFACE[dimension] * total)


def energy(gs: GroundState) -> float:
    """Trap energy of a solved ground state."""
    return energy_of(gs.eps, gs.dimension, gs.grid, gs.eta)


def composite_eta(cset: CorrectionSet, eps: float, x):
    """Composite approximation eps^(1/3) sum eps^(2n/3) nu_n((1 - x^2) / eps^(2/3)).

    ``composite_nu`` at the layer coordinate of x, scaled; it owns the domain.
    """
    return eps ** (1.0 / 3.0) * composite_nu(cset, eps, to_boundary_layer(x, eps))


@record
class RemainderTable:
    """sup-norm error of the composite approximation over a ladder of eps."""

    eps: np.ndarray
    err: np.ndarray
    pair_order: np.ndarray  # empirical order between consecutive eps, NaN first
    fit_order: float

    def to_csv(self, path) -> None:
        write_csv(path, ["eps", "err", "order"], [self.eps, self.err, self.pair_order])


def check_remainder_eps(eps_list) -> None:
    """ValueError unless ``eps_list`` has the two or more distinct eps an empirical order needs."""
    if len(eps_list) < 2:
        raise ValueError("remainder study needs at least two eps values")
    if len(set(eps_list)) < len(eps_list):
        raise ValueError(f"remainder study needs distinct eps values, got {tuple(eps_list)}")


def remainder_study(states) -> RemainderTable:
    """Tabulate sup |eta_eps - composite| and its empirical order in eps.

    Tabulates the ground states it is given, in the order given, and solves
    none: each state carries the composite it was seeded with.  The error
    measures the composite, not the solver, only if each state is solved well
    past it, so the caller states their tolerance and grid.
    """
    ladder = [(gs.eps, float(np.abs(gs.eta - gs.composite).max())) for gs in states]
    check_remainder_eps([eps for eps, _ in ladder])
    eps_arr, errs = (np.asarray(col, dtype=float) for col in zip(*ladder))
    pair = np.full(eps_arr.size, np.nan)
    pair[1:] = np.log(errs[:-1] / errs[1:]) / np.log(eps_arr[:-1] / eps_arr[1:])
    return RemainderTable(eps=eps_arr, err=errs, pair_order=pair,
                          fit_order=loglog_slope(eps_arr, errs))
