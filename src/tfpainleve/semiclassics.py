"""Bohr-Sommerfeld quadrature for single-well potentials.

The quantization rule int sqrt(mu - W(y)) dy = pi (2n - 1) predicts the large-n
eigenvalues of -4 d^2/dy^2 + W.  A substitution and one integration by parts
turn the action into a smooth, derivative-free integral for Gauss-Legendre
quadrature over the positions where W takes given values.  Both root problems,
W(y) = target at the quadrature nodes and action(mu) = pi (2n - 1) at the
levels, run on one vectorized safeguarded secant: the scan that certifies the
well brackets every node, and the top of the certified range every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grids import UniformSpline
from .painleve import ConvergenceError, PainleveSolution

_GL_NODES = 64
_SAMPLES = 4001
_ACTION_TOL = 1e-13  # to rounding: a 1-ulp step in mu moves the action by about 1e-14
_ROOT_ROUNDS = 80
_EPS = float(np.finfo(float).eps)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)  # field-wise == on the scan arrays would be ambiguous
class PotentialProfile:
    """Single-well W, certified monotone on each side of its minimum by the scan ws = W(ys)."""

    evaluator: object
    well_location: float
    well_value: float
    ys: np.ndarray
    ws: np.ndarray

    def __call__(self, y):
        return self.evaluator(y)

    @cached_property
    def _brackets(self):
        """Both sides' ``_bracket_table``, built on first use."""
        return {side: _bracket_table(self, side) for side in (-1, 1)}


def _golden_min(f, a: float, b: float, tol: float = 1e-13):
    """Golden-section minimizer on [a, b] for the well-bottom refinement."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def from_function(f, y_left: float, y_right: float) -> PotentialProfile:
    """Certify a callable as single-well by scanning, then refine the bottom.

    Plateaus in the scan are tolerated (broken toward the well); a
    non-finite value, or any strict rise left of the minimum or fall right
    of it, rejects the potential.
    """
    if not y_right > y_left:
        raise ValueError(f"empty certification range [{y_left}, {y_right}]")
    ys = np.linspace(y_left, y_right, _SAMPLES)
    w = np.asarray(f(ys), dtype=float)
    bad = ~np.isfinite(w)
    if bad.any():
        raise ValueError(f"potential is not finite on the certified range at y = {ys[bad][0]:g}")
    i = int(np.argmin(w))
    if i == 0 or i == _SAMPLES - 1:
        raise ValueError("potential has no interior minimum on the certified range")
    slack = 1e-12 * (float(np.max(np.abs(w))) + 1.0)
    if np.any(np.diff(w[: i + 1]) > slack):
        raise ValueError("potential rises left of its minimum: not single-well")
    if np.any(np.diff(w[i:]) < -slack):
        raise ValueError("potential falls right of its minimum: not single-well")
    loc, val = _golden_min(lambda t: float(f(t)), float(ys[i - 1]), float(ys[i + 1]))
    return PotentialProfile(f, loc, val, ys, w)


def from_solution(sol: PainleveSolution) -> PotentialProfile:
    """Profile of W0 = 3 nu0^2 - y over the layer grid."""
    return from_function(UniformSpline(sol.grid, sol.w0), sol.grid.a, sol.grid.b)


def _bracket_table(W: PotentialProfile, side: int):
    """The well bottom, then the scan outward: positions, W, sqrt(running max W - W.well_value).

    The running maximum keeps the last column sorted through tolerated plateaus.
    """
    outward = side * (W.ys - W.well_location) > 0.0
    ys = np.concatenate(([W.well_location], W.ys[outward][::side]))
    ws = np.concatenate(([W.well_value], W.ws[outward][::side]))
    return ys, ws, np.sqrt(np.maximum.accumulate(ws) - W.well_value)


def _secant(f, y, a, b, y_prev, r_prev, tol, what: str):
    """Solve f = 0 for every entry of the start y by vectorized safeguarded secant.

    ``f(y_live, live)`` gives the residuals of the entries ``live``; f(a) <= 0
    <= f(b) on each bracket (a, b in either order), and a, b, the previous
    point (y_prev, r_prev) and tol broadcast against y.  A step through the
    previous point that leaves the bracket falls back to its midpoint.  An
    entry is done when |f(y)| <= tol or its bracket has shrunk to rounding;
    entries still open after ``_ROOT_ROUNDS`` rounds raise ConvergenceError.
    """
    a, b, y_prev, r_prev, tol = (np.full(y.shape, v, float) for v in (a, b, y_prev, r_prev, tol))
    live = np.arange(y.size)
    for _ in range(_ROOT_ROUNDS):
        yl = y[live]
        r = f(yl, live)
        al = np.where(r < 0.0, yl, a[live])
        bl = np.where(r < 0.0, b[live], yl)
        a[live], b[live] = al, bl
        keep = (np.abs(r) > tol[live]) & (np.abs(bl - al) > _EPS * (np.abs(al) + np.abs(bl)))
        live, yl, r, al, bl = live[keep], yl[keep], r[keep], al[keep], bl[keep]
        if live.size == 0:
            return y
        with np.errstate(divide="ignore", invalid="ignore"):
            step = yl - r * (yl - y_prev[live]) / (r - r_prev[live])
        y_prev[live], r_prev[live] = yl, r
        y[live] = np.where((step - al) * (step - bl) < 0.0, step, 0.5 * (al + bl))
    raise ConvergenceError(f"{what} left {live.size} of {y.size} open after {_ROOT_ROUNDS} rounds")


def _branch_positions(W: PotentialProfile, targets, side: int):
    """Solve W(y) = target on the branch left (side -1) or right (+1) of the well bottom.

    Each target lies between W.well_value and W at that end of the certified
    range, so the side's ``_bracket_table`` brackets it.  The start interpolates
    sqrt(W - W.well_value), nearly linear in y at the quadratic bottom, and the
    first step runs through the bracket end that the scan evaluated.  The
    residual tolerance scales with |W|, since a step-size test would never
    fire near the bottom, where W' -> 0.
    """
    targets = np.asarray(targets, dtype=float)
    ys, ws, scan_root = W._brackets[side]
    # W lies between the well value and the target from the well to the root,
    # so this bounds |W| there: the scale of the residual's rounding
    tol = 4.0 * _EPS * np.maximum(np.abs(targets), abs(W.well_value))
    root = np.sqrt(np.maximum(targets - W.well_value, 0.0))
    k = np.clip(np.searchsorted(scan_root, root), 1, ys.size - 1)
    a, b = ys[k - 1], ys[k]  # W(a) <= target <= W(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (root - scan_root[k - 1]) / (scan_root[k] - scan_root[k - 1])
    y = np.where(np.isfinite(frac), a + np.clip(frac, 0.0, 1.0) * (b - a), 0.5 * (a + b))
    name = "right" if side > 0 else "left"
    return _secant(
        lambda yl, live: np.asarray(W(yl), dtype=float) - targets[live],
        y, a, b, b, ws[k] - targets, tol,
        f"root solve on the {name} branch [{min(ys[0], ys[-1]):g}, {max(ys[0], ys[-1]):g}]",
    )


@lru_cache(maxsize=1)
def _phase_rule():
    """Gauss-Legendre nodes and weights on [0, pi/2], built once per process.

    Newton steps on the Legendre recurrence from cosine estimates of the roots;
    numpy's ``leggauss`` would import numpy.polynomial for these 64 numbers.
    """
    x = np.cos(math.pi * (np.arange(_GL_NODES) + 0.75) / (_GL_NODES + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for j in range(2, _GL_NODES + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = _GL_NODES * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    phi = 0.25 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi / ((1.0 - x * x) * dp * dp)
    phi.setflags(write=False)
    weights.setflags(write=False)
    return phi, weights


def action(W: PotentialProfile, mu):
    """Classically allowed action int sqrt(mu - W) dy; scalar mu gives a float.

    All entries of an array mu share one ``_branch_positions`` solve per
    branch.  With mu - W = (T sin phi)^2 and T^2 = mu - W(bottom), the turning
    points y_l, y_r lie at phi = 0 and the bottom at phi = pi/2.  Integrating
    by parts moves the derivative of y(phi) onto sin(phi); the boundary terms
    vanish, and the well location drops out of the smooth integrand:

        int sqrt(mu - W) dy = T int_0^{pi/2} cos(phi) (y_r(phi) - y_l(phi)) dphi.
    """
    mu = np.asarray(mu, dtype=float)
    if (low := ~(mu > W.well_value)).any():
        raise ValueError(f"mu = {mu[low][0]:g} is not above the well bottom {W.well_value:g}")
    for name, w_end in (("left", W.ws[0]), ("right", W.ws[-1])):
        if (high := mu > w_end).any():
            raise ValueError(f"mu = {mu[high][0]:g} exceeds the certified range on the {name}")
    phi, weights = _phase_rule()
    t2 = mu - W.well_value
    targets = (mu[..., None] - t2[..., None] * np.sin(phi) ** 2).ravel()
    y_l, y_r = (_branch_positions(W, targets, side).reshape(-1, phi.size) for side in (-1, 1))
    out = np.sqrt(t2) * ((np.cos(phi) * (y_r - y_l)) @ weights).reshape(mu.shape)
    return out if out.ndim else float(out)


def check_levels(n) -> np.ndarray:
    """The level indices n as a float array; ValueError unless each is a positive integer."""
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n) & (n >= 1.0) & (n == np.floor(n))):
        raise ValueError(f"level index must be a positive integer (bs_levels), got {n}")
    return n


def bs_eigenvalue(W: PotentialProfile, n):
    """Energies mu_n solving action(W, mu) = pi (2n - 1); scalar n gives a float.

    The action rises from 0 at the well bottom to action(W, top) at the top of
    the certified range, top = min(W.ws[0], W.ws[-1]); a level above that
    raises ``ConvergenceError``.  All levels solve together by ``_secant`` in
    [W.well_value, top], to |action - pi (2n - 1)| <= ``_ACTION_TOL``.
    """
    n = check_levels(n)
    targets = math.pi * (2.0 * n.ravel() - 1.0)
    lo, top = W.well_value, float(min(W.ws[0], W.ws[-1]))
    if (over := targets > (reach := action(W, top))).any():
        raise ConvergenceError(
            f"Bohr-Sommerfeld bracket failure: level {n.ravel()[over][0]:g} needs action "
            f"{targets[over][0]:.6g}, but mu in [{lo:g}, {top:g}] under the top of the "
            f"certified range reaches only {reach:.6g}"
        )
    mu = _secant(
        lambda ml, live: action(W, ml) - targets[live], lo + (top - lo) * targets / reach,
        lo, top, top, reach - targets, _ACTION_TOL, "Bohr-Sommerfeld solve",
    )
    return mu.reshape(n.shape) if n.ndim else float(mu[0])
