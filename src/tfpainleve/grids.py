"""Uniform grids, tridiagonal operators, cubic splines, and the trap-to-layer coordinate map."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field, fields

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


# record field annotations, strings since every module postpones them: True for a tuple of arrays
_ARRAY_FIELDS = {"np.ndarray": False, "tuple": True}


def record(cls):
    """Declare a result record: a frozen dataclass compared by identity, its arrays read-only.

    Each field annotated ``np.ndarray``, and each entry of a field annotated
    ``tuple``, is stored as ``np.asarray(value, dtype=float)``.  The class's
    own ``__post_init__`` checks then run on those arrays; only when they pass
    are the arrays made read-only, so a rejected input stays writable.  A
    float64 array is kept without a copy, so an accepted record makes the
    caller's array read-only: pass a copy to keep writing to it.
    """
    checks = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        frozen = []
        for name, many in arrays:
            value = getattr(self, name)
            arrs = [np.asarray(v, dtype=float) for v in (value if many else (value,))]
            object.__setattr__(self, name, tuple(arrs) if many else arrs[0])
            frozen += arrs
        if checks is not None:
            checks(self)
        for arr in frozen:
            arr.setflags(write=False)

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True, eq=False)(cls)
    arrays = [(f.name, _ARRAY_FIELDS[f.type]) for f in fields(cls) if f.type in _ARRAY_FIELDS]
    return cls


@record
class Grid1D:
    """Uniform one-dimensional grid with finite nodes in increasing order.

    ``spacing`` is the scalar step ``nodes[1] - nodes[0]``; nodes whose steps
    differ from it beyond rounding are rejected.  Instances are immutable
    after construction.
    """

    nodes: np.ndarray
    spacing: float = field(init=False)

    def __post_init__(self):
        nodes = self.nodes
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError(f"need at least 3 nodes in one dimension, got shape {nodes.shape}")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        # linspace rounding moves each step by a few ulps of the largest |node|
        slack = 64.0 * np.finfo(float).eps * float(np.abs(nodes).max())
        if np.any(np.abs(steps - steps[0]) > slack):
            raise ValueError("grid nodes must be uniformly spaced")
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
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"grid ends must be finite, got [{a}, {b}]")
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    return Grid1D(np.linspace(a, b, n))


@record
class TridiagonalOperator:
    """Tridiagonal matrix stored by bands."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        n = self.diag.size
        if self.sub.size != n - 1 or self.sup.size != n - 1:
            raise ValueError(
                f"band lengths {self.sub.size}/{n}/{self.sup.size} do not form a tridiagonal matrix"
            )

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def norm(self) -> float:
        """The infinity-norm: the largest row sum |diag[i]| + (|sup[i]| + |sub[i-1]|)."""
        off = np.zeros(self.n)
        off[:-1] = np.abs(self.sup)
        off[1:] += np.abs(self.sub)
        return float((np.abs(self.diag) + off).max())

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The product with an (n,) vector, or with each column of an (n, k) block."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.n:
            raise ValueError(f"operand of shape {v.shape} does not match operator size {self.n}")
        sub, diag, sup = (b if v.ndim == 1 else b[:, None] for b in (self.sub, self.diag, self.sup))
        out = diag * v
        out[:-1] += sup * v[1:]
        out[1:] += sub * v[:-1]
        return out


def _gtsv(sub, diag, sup, rhs, overwrite):
    """LAPACK dgtsv on the bands and right-hand side; ``overwrite`` lets it solve in place.

    With ``overwrite`` set, f2py writes through read-only arrays too, so pass
    only arrays the caller owns.
    """
    _, _, _, x, info = lapack.dgtsv(sub, diag, sup, rhs, overwrite, overwrite, overwrite, overwrite)
    if info > 0:
        raise SingularPivotError(info - 1)
    if info < 0:
        raise ValueError(f"illegal dgtsv argument {-info}")
    return x


def solve_tridiagonal(op: TridiagonalOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op x = rhs by elimination with partial pivoting (LAPACK dgtsv)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs of shape {rhs.shape} does not match operator size {op.n}")
    return _gtsv(op.sub, op.diag, op.sup, rhs, False)


def _not_a_knot_bands(n: int):
    """Fresh (sub, diag, sup) of the not-a-knot system on n samples, for dgtsv to overwrite."""
    diag = np.full(n - 2, 4.0)
    diag[0] = diag[-1] = 6.0
    sub = np.ones(n - 3)
    sup = np.ones(n - 3)
    sup[0] = sub[-1] = 0.0
    return sub, diag, sup


class UniformSpline:
    """Not-a-knot cubic splines through samples on a uniform grid.

    ``values`` is one sample array, or a tuple of them for several splines on
    the same grid; a call then returns one result per column, in order.  The
    second derivatives M solve M[i-1] + 4 M[i] + M[i+1] = 6 (v[i-1] - 2 v[i]
    + v[i+1]) / h^2 at the interior nodes.  Not-a-knot (one cubic across the
    first two and the last two intervals) sets M[0] = 2 M[1] - M[2] and
    M[n-1] = 2 M[n-2] - M[n-3]; eliminating them leaves a tridiagonal system
    whose end rows are 6 M[1] and 6 M[n-2], one dgtsv solve per column.  The
    spline keeps M, one float per node and column, and a reference to the
    samples, which must not change afterwards.  A call forms the Horner
    coefficients of the intervals it needs, in the local variable
    t = y - nodes[i], from the rows it gathers.  Points outside the grid
    extrapolate the end cubics.  Scalars in give floats out.
    """

    def __init__(self, grid: Grid1D, values):
        self._single = not isinstance(values, tuple)
        columns = tuple(np.asarray(v, dtype=float) for v in ((values,) if self._single else values))
        for v in columns:
            if v.shape != grid.nodes.shape:
                raise ValueError(f"values shape {v.shape} does not match grid size {grid.n}")
        if grid.n < 4:
            raise ValueError(f"a not-a-knot spline needs at least 4 samples, got {grid.n}")
        h = grid.spacing
        m = np.empty((len(columns), grid.n))
        for v, row in zip(columns, m):
            row[1:-1] = 6.0 * (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
            _gtsv(*_not_a_knot_bands(grid.n), row[1:-1], True)
            row[0] = 2.0 * row[1] - row[2]
            row[-1] = 2.0 * row[-2] - row[-3]
        # each column's samples and M at the left and right end of every interval
        self._ends = tuple((v[:-1], v[1:], mj[:-1], mj[1:]) for v, mj in zip(columns, m))
        self._knots = grid.nodes[:-1]
        self._a = grid.a
        self._inv_h = 1.0 / h
        self._h = h

    def __call__(self, y):
        # ``take`` in clip mode clamps the interval index to [0, n - 2], so
        # points outside the grid use the end intervals
        y = np.asarray(y, dtype=float)
        h = self._h
        k = ((y - self._a) * self._inv_h).astype(np.intp)
        t = y - self._knots.take(k, mode="clip")
        out = []
        for v0, v1, m0, m1 in self._ends:
            mk, mk1 = m0.take(k, mode="clip"), m1.take(k, mode="clip")
            vk = v0.take(k, mode="clip")
            d = (mk1 - mk) / (6.0 * h)
            c = 0.5 * mk
            b = (v1.take(k, mode="clip") - vk) / h - h * (2.0 * mk + mk1) / 6.0
            s = ((d * t + c) * t + b) * t + vk
            out.append(s if s.ndim else float(s))
        return out[0] if self._single else tuple(out)


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


def check_positive(value: float, name: str) -> None:
    """ValueError unless ``value``, called ``name`` in the message, is finite and positive."""
    if not 0.0 < value < np.inf:  # NaN fails this too
        raise ValueError(f"{name} must be finite and positive, got {value}")


def to_boundary_layer(x, eps: float):
    """Map trap coordinate x to the stretched layer coordinate y = (1 - x^2) / eps^(2/3)."""
    check_positive(eps, "eps")
    x = np.asarray(x, dtype=float)
    y = (1.0 - x * x) / eps ** (2.0 / 3.0)
    return y if y.ndim else float(y)

