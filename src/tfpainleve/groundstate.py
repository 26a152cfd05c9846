"""Radial ground states of the trapped cubic problem and composite approximations.

The profile eta(r) >= 0 solves
    eps^2 (eta'' + (d-1)/r eta') + (1 - r^2) eta - eta^3 = 0
on [0, r_max] with a symmetry condition at the origin and decay at r_max.
The composite approximation transplants the layer expansion back to the trap
coordinate; comparing the two at shrinking eps measures the remainder order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .corrections import CorrectionSet, composite_nu
from .grids import Grid1D, first_difference, to_boundary_layer, uniform_grid
from .painleve import ConvergenceError, PainleveSolution, damped_newton, tail_minus

_CONTINUATION_START = 0.3
_NEGATIVE_SLACK = 1e-12


@dataclass(frozen=True)
class GroundState:
    """Converged radial profile for one (eps, dimension) pair."""

    eps: float
    dimension: int
    grid: Grid1D
    eta: np.ndarray
    residual_max: float
    tol: float
    newton_iterations: int
    continuation_path: tuple

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)

    def to_csv(self, path, composite=None) -> None:
        header = ["r", "eta"]
        cols = [self.grid.nodes, self.eta]
        if composite is not None:
            header += ["composite", "abs_diff"]
            cols += [composite, np.abs(self.eta - composite)]
        write_csv(path, header, cols)


def thomas_fermi(x):
    """Inverted-parabola bulk profile sqrt(max(1 - x^2, 0))."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    return out if out.ndim else float(out)


def default_grid(eps: float, r_max: float = 2.5, nodes_per_layer: int = 40) -> Grid1D:
    """Uniform radial grid resolving the eps^(2/3) layer with the requested density."""
    width = eps ** (2.0 / 3.0)
    n = max(int(math.ceil(r_max * nodes_per_layer / width)) + 1, 201)
    return uniform_grid(0.0, r_max, n)


def _smoothed_guess(eps: float, r: np.ndarray) -> np.ndarray:
    # same algebraic regularization as the layer solver's initial guess
    y = to_boundary_layer(r, eps)
    return eps ** (1.0 / 3.0) * np.sqrt((y + np.sqrt(y * y + 4.0)) / 2.0)


def _residual(eta, r, h, eps, d):
    res = np.empty_like(eta)
    e2 = eps * eps
    lap = (eta[:-2] - 2.0 * eta[1:-1] + eta[2:]) / h**2
    drift = (eta[2:] - eta[:-2]) / (2.0 * h) * ((d - 1.0) / r[1:-1])
    res[1:-1] = e2 * (lap + drift) + (1.0 - r[1:-1] ** 2) * eta[1:-1] - eta[1:-1] ** 3
    # r = 0: regularity turns the radial Laplacian into d * eta''(0)
    res[0] = e2 * d * 2.0 * (eta[1] - eta[0]) / h**2 + eta[0] - eta[0] ** 3
    res[-1] = eta[-1]
    return res


def _newton(eta, r, h, eps, d, tol, max_iterations):
    n = r.size
    e2 = eps * eps
    inv_r = (d - 1.0) / r[1:-1]
    sub = np.empty(n - 1)
    sup = np.empty(n - 1)
    sub[:-1] = e2 * (1.0 / h**2 - inv_r / (2.0 * h))
    sup[1:] = e2 * (1.0 / h**2 + inv_r / (2.0 * h))
    sup[0] = 2.0 * d * e2 / h**2
    sub[-1] = 0.0

    def jacobian(eta):
        diag = np.empty(n)
        diag[1:-1] = -2.0 * e2 / h**2 + (1.0 - r[1:-1] ** 2) - 3.0 * eta[1:-1] ** 2
        diag[0] = -2.0 * d * e2 / h**2 + 1.0 - 3.0 * eta[0] ** 2
        diag[-1] = 1.0
        return sub, diag, sup

    return damped_newton(
        lambda eta: _residual(eta, r, h, eps, d), jacobian, eta, tol, max_iterations,
        what=f"ground state Newton at eps={eps:g}",
    )


def solve_ground_state(
    eps: float,
    dimension: int,
    tol: float = 1e-8,
    r_max: float = 2.5,
    nodes_per_layer: int = 40,
    painleve_sol: PainleveSolution | None = None,
    correction_set: CorrectionSet | None = None,
    max_iterations: int = 60,
) -> GroundState:
    """Damped-Newton solve for the positive radial profile.

    The grid is ``default_grid`` on [0, max(r_max, 2, 1 + 6 eps^(2/3))], so it
    reaches past the decay region beyond r = 1.  The initial guess is the
    composite approximation when a profile solution and correction set are
    supplied, else the smoothed bulk profile.  If the direct solve stalls,
    continuation restarts from eps = 0.3 and halves eps until the target,
    reusing each converged state as the next guess.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 0.5], got {eps}")
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    width = eps ** (2.0 / 3.0)
    r_need = max(2.0, 1.0 + 6.0 * width)
    grid = default_grid(eps, r_max=max(r_max, r_need), nodes_per_layer=nodes_per_layer)
    h = grid.spacing
    r = grid.nodes
    if h > width / 20.0:
        raise ValueError(
            f"grid spacing {h:.3e} too coarse for the eps^(2/3) layer {width:.3e}; "
            "need at least 20 nodes per layer width"
        )

    if painleve_sol is not None and correction_set is not None:
        eta0 = composite_eta(painleve_sol, correction_set, eps, r)
    else:
        eta0 = _smoothed_guess(eps, r)
    eta0[-1] = 0.0

    path = [eps]
    try:
        eta, rnorm, iterations = _newton(eta0, r, h, eps, dimension, tol, max_iterations)
    except ConvergenceError:
        # continuation from a loose eps down to the target
        path = []
        eps_k = _CONTINUATION_START
        ladder = []
        while eps_k > eps * 1.0000001:
            ladder.append(eps_k)
            eps_k *= 0.5
        ladder.append(eps)
        current = _smoothed_guess(ladder[0], r)
        current[-1] = 0.0
        total_iter = 0
        for ek in ladder:
            current, rnorm, its = _newton(current, r, h, ek, dimension, tol, max_iterations)
            total_iter += its
            path.append(ek)
        eta, iterations = current, total_iter

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
        tol=tol,
        newton_iterations=iterations,
        continuation_path=tuple(path),
    )


_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def energy_of(eps: float, dimension: int, grid: Grid1D, eta: np.ndarray) -> float:
    """Trap energy of an arbitrary radial profile (trapezoid quadrature).

    E = |S^{d-1}| int ( eps^2 eta'^2 + (r^2 - 1) eta^2 + eta^4 / 2 ) r^{d-1} dr
    """
    if dimension not in _SURFACE:
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    r = grid.nodes
    deta = first_difference(eta, grid)
    density = eps * eps * deta**2 + (r * r - 1.0) * eta * eta + 0.5 * eta**4
    weight = np.ones_like(r) if dimension == 1 else r ** (dimension - 1)
    return float(_SURFACE[dimension] * np.trapezoid(density * weight, r))


def energy(gs: GroundState) -> float:
    """Trap energy of a solved ground state."""
    return energy_of(gs.eps, gs.dimension, gs.grid, gs.eta)


def composite_eta(
    sol: PainleveSolution,
    cset: CorrectionSet,
    eps: float,
    x,
) -> np.ndarray:
    """Composite approximation eps^(1/3) sum eps^(2n/3) nu_n((1 - x^2) / eps^(2/3)).

    Points mapping left of the profile grid continue with the decaying tail of
    the leading profile; points mapping right of it (possible only for very
    small eps) are an error.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = to_boundary_layer(x, eps)
    if np.any(y > sol.grid.b):
        raise ValueError(
            f"layer coordinate reaches y = {y.max():.2f} beyond the profile grid; "
            "re-solve the profile with a larger y_max"
        )
    out = np.empty_like(y)
    inside = y >= sol.grid.a
    if np.any(inside):
        out[inside] = composite_nu(sol, cset, eps, y[inside])
    if np.any(~inside):
        out[~inside] = tail_minus(y[~inside])
    out *= eps ** (1.0 / 3.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RemainderTable:
    """sup-norm error of the composite approximation over a ladder of eps."""

    dimension: int
    order: int
    eps: np.ndarray
    err: np.ndarray
    pair_order: np.ndarray  # empirical order between consecutive eps, NaN first
    fit_order: float

    def to_csv(self, path) -> None:
        write_csv(path, ["eps", "err", "order"], [self.eps, self.err, self.pair_order])


def remainder_study(
    sol: PainleveSolution, cset: CorrectionSet, eps_list, dimension: int
) -> RemainderTable:
    """Measure sup |eta_eps - composite| and its empirical order in eps.

    Each ground state is seeded with the composite itself, so the Newton solve
    converges directly; the two routes stay independent because the solve
    iterates the full nonlinear problem to its own tolerance (1e-10, on 80
    nodes per layer width).
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if eps_arr.size < 2:
        raise ValueError("remainder study needs at least two eps values")
    errs = []
    for eps in eps_arr:
        gs = solve_ground_state(
            eps, dimension, tol=1e-10, nodes_per_layer=80, painleve_sol=sol, correction_set=cset
        )
        comp = composite_eta(sol, cset, eps, gs.grid.nodes)
        errs.append(float(np.abs(gs.eta - comp).max()))
    errs = np.asarray(errs)
    pair = np.full(eps_arr.size, np.nan)
    pair[1:] = np.log(errs[:-1] / errs[1:]) / np.log(eps_arr[:-1] / eps_arr[1:])
    le = np.log(eps_arr) - np.log(eps_arr).mean()
    fit = float((le @ (np.log(errs) - np.log(errs).mean())) / (le @ le))
    return RemainderTable(
        dimension=dimension,
        order=cset.order,
        eps=eps_arr,
        err=errs,
        pair_order=pair,
        fit_order=fit,
    )
