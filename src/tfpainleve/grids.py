"""Uniform grids, tridiagonal operators, cubic splines, and the trap-to-layer coordinate map."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np


def _load_flapack():
    """scipy's f2py LAPACK extension, loaded from its file.

    ``import scipy.linalg`` runs the package ``__init__``, whose numpy
    namespace clone imports numpy.f2py, numpy.testing, numpy.ma and
    numpy.random: about half of a cold ``tfp`` start.  The extension needs
    numpy only.  ``find_spec`` locates scipy without importing it; another
    scipy layout falls back to ``scipy.linalg.lapack``, which wraps the same
    routines.
    """
    spec = importlib.util.find_spec("scipy")
    for directory in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
                spec = importlib.util.spec_from_file_location(loader.name, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
    from scipy.linalg import lapack

    return lapack


lapack = _load_flapack()


class SingularPivotError(ValueError):
    """Raised when tridiagonal elimination hits an exactly singular pivot."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"singular pivot at elimination index {index}")


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform one-dimensional grid with nodes in increasing order.

    ``spacing`` is the scalar step ``nodes[1] - nodes[0]``; nodes whose steps
    differ from it beyond rounding are rejected.  Instances are immutable
    after construction.
    """

    nodes: np.ndarray
    spacing: float = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError(f"need at least 3 nodes in one dimension, got shape {nodes.shape}")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        # linspace rounding moves each step by a few ulps of the largest |node|
        slack = 64.0 * np.finfo(float).eps * float(np.abs(nodes).max())
        if np.any(np.abs(steps - steps[0]) > slack):
            raise ValueError("grid nodes must be uniformly spaced")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "spacing", float(steps[0]))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


def uniform_grid(a: float, b: float, n: int) -> Grid1D:
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    return Grid1D(np.linspace(a, b, n))


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Tridiagonal matrix stored by bands."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        n = diag.size
        if sub.size != n - 1 or sup.size != n - 1:
            raise ValueError(
                f"band lengths {sub.size}/{diag.size}/{sup.size} do not form a tridiagonal matrix"
            )
        for arr in (sub, diag, sup):
            arr.setflags(write=False)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector of shape {v.shape} does not match operator size {self.n}")
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out


def solve_tridiagonal(op: TridiagonalOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op x = rhs by elimination with partial pivoting (LAPACK dgtsv)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs of shape {rhs.shape} does not match operator size {op.n}")
    _, _, _, x, info = lapack.dgtsv(op.sub.copy(), op.diag.copy(), op.sup.copy(), rhs)
    if info > 0:
        raise SingularPivotError(info - 1)
    if info < 0:
        raise ValueError(f"illegal dgtsv argument {-info}")
    return x


class UniformSpline:
    """Not-a-knot cubic spline through samples on a uniform grid.

    The second derivatives M solve M[i-1] + 4 M[i] + M[i+1] = 6 (v[i-1] - 2 v[i]
    + v[i+1]) / h^2 at the interior nodes.  Not-a-knot (one cubic across the
    first two and the last two intervals) sets M[0] = 2 M[1] - M[2] and
    M[n-1] = 2 M[n-2] - M[n-3]; eliminating them leaves a tridiagonal system
    whose end rows are 6 M[1] and 6 M[n-2].  Each interval keeps its Horner
    coefficients in the local variable t = y - nodes[i].  Points outside the
    grid extrapolate the end cubics.  Scalars in give floats out.
    """

    def __init__(self, grid: Grid1D, values):
        v = np.asarray(values, dtype=float)
        if v.shape != grid.nodes.shape:
            raise ValueError(f"values shape {v.shape} does not match grid size {grid.n}")
        if v.size < 4:
            raise ValueError(f"a not-a-knot spline needs at least 4 samples, got {v.size}")
        h = grid.spacing
        diag = np.full(v.size - 2, 4.0)
        diag[0] = diag[-1] = 6.0
        sub = np.ones(v.size - 3)
        sup = sub.copy()
        sup[0] = sub[-1] = 0.0
        rhs = 6.0 * (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
        m = solve_tridiagonal(TridiagonalOperator(sub, diag, sup), rhs)
        m = np.concatenate(([2.0 * m[0] - m[1]], m, [2.0 * m[-1] - m[-2]]))
        d = (m[1:] - m[:-1]) / (6.0 * h)
        c = 0.5 * m[:-1]
        b = np.diff(v) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
        self._value = np.stack([d, c, b, v[:-1]], axis=1)
        self._knots = grid.nodes[:-1]
        self._a = grid.a
        self._inv_h = 1.0 / h

    def __call__(self, y):
        # ``take`` in clip mode clamps the interval index to [0, n - 2], so
        # points outside the grid use the end intervals
        y = np.asarray(y, dtype=float)
        k = ((y - self._a) * self._inv_h).astype(np.intp)
        t = y - self._knots.take(k, mode="clip")
        d, c, b, a = self._value.take(k, axis=0, mode="clip").T
        out = ((d * t + c) * t + b) * t + a
        return out if out.ndim else float(out)


def second_difference(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Discrete second derivative: 3-point interior, one-sided 4-point ends.

    The interior stencil (v[i-1] - 2 v[i] + v[i+1]) / h^2 is exact on
    quadratics; the end stencils (2 v0 - 5 v1 + 4 v2 - v3) / h^2 are one-sided
    second order, exact on cubics.  On 3 nodes every entry is the centered value.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != grid.nodes.shape:
        raise ValueError(f"values shape {v.shape} does not match grid size {grid.n}")
    h2 = grid.spacing**2
    out = np.empty_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
    if v.size == 3:
        out[0] = out[-1] = out[1]
    else:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


def first_difference(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Discrete first derivative.

    The 5-point fourth-order stencil at interior nodes, the centered
    second-order formula next to each end and the one-sided second-order
    formulas (-3 v0 + 4 v1 - v2) / (2h) and (3 v[-1] - 4 v[-2] + v[-3]) / (2h)
    at the ends.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != grid.nodes.shape:
        raise ValueError(f"values shape {v.shape} does not match grid size {grid.n}")
    out = np.empty_like(v)
    h = grid.spacing
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[1] = (v[2] - v[0]) / (2.0 * h)
    out[-2] = (v[-1] - v[-3]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def to_boundary_layer(x, eps: float):
    """Map trap coordinate x to the stretched layer coordinate y = (1 - x^2) / eps^(2/3)."""
    if not 0.0 < eps:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    y = (1.0 - x * x) / eps ** (2.0 / 3.0)
    return y if y.ndim else float(y)

