"""Bohr-Sommerfeld quadrature for single-well potentials.

The quantization rule int sqrt(mu - W(y)) dy = pi (2n - 1) over the classically
allowed region predicts the large-n eigenvalues of -4 d^2/dy^2 + W.  The action
integral is split at the well bottom and each monotone branch is computed with
the substitution mu - W = (T sin phi)^2 and one integration by parts, which
remove the square-root turning point singularity and leave the smooth,
derivative-free integrand T cos(phi) |y(phi) - y_well| for Gauss-Legendre
quadrature.

Turning points and the quadrature nodes' positions on each branch come from
one root-finder, ``_branch_positions``: a vectorized Newton solve of
W(y) = target, started from a 33-point scan of the branch and kept inside the
scan's bracket by midpoint fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .painleve import ConvergenceError, PainleveSolution

_GL_NODES = 64
_SAMPLES = 4001
_ACTION_TOL = 1e-9
_SCAN_NODES = 33
_ROOT_ROUNDS = 80
_EPS = float(np.finfo(float).eps)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PotentialProfile:
    """Single-well potential certified monotone on each side of its minimum."""

    evaluator: object
    derivative: object
    well_location: float
    well_value: float
    y_left: float
    y_right: float

    def __call__(self, y):
        return self.evaluator(y)


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


def from_function(f, y_left: float, y_right: float, derivative) -> PotentialProfile:
    """Certify a callable as single-well by scanning, then refine the bottom.

    ``derivative`` evaluates W' for the root solves.  Plateaus in the scan
    are tolerated (broken toward the well); any strict rise left of the
    minimum or fall right of it rejects the potential.
    """
    if not y_right > y_left:
        raise ValueError(f"empty certification range [{y_left}, {y_right}]")
    ys = np.linspace(y_left, y_right, _SAMPLES)
    w = np.asarray(f(ys), dtype=float)
    i = int(np.argmin(w))
    if i == 0 or i == _SAMPLES - 1:
        raise ValueError("potential has no interior minimum on the certified range")
    slack = 1e-12 * (float(np.max(np.abs(w))) + 1.0)
    if np.any(np.diff(w[: i + 1]) > slack):
        raise ValueError("potential rises left of its minimum: not single-well")
    if np.any(np.diff(w[i:]) < -slack):
        raise ValueError("potential falls right of its minimum: not single-well")
    loc, val = _golden_min(lambda t: float(f(t)), float(ys[i - 1]), float(ys[i + 1]))
    return PotentialProfile(
        evaluator=f,
        derivative=derivative,
        well_location=loc,
        well_value=val,
        y_left=float(y_left),
        y_right=float(y_right),
    )


def from_solution(sol: PainleveSolution) -> PotentialProfile:
    """Profile of W0 = 3 nu0^2 - y over the layer grid."""
    spline = CubicSpline(sol.grid.nodes, sol.w0)
    return from_function(spline, sol.grid.a, sol.grid.b, spline.derivative())


def turning_points(W: PotentialProfile, mu: float):
    """Roots y_minus < y_plus of W(y) = mu, one per monotone branch.

    Each root comes from the safeguarded Newton solve of ``_branch_positions``
    with the single target mu.
    """
    if not mu > W.well_value:
        raise ValueError(f"mu = {mu:g} is not above the well bottom {W.well_value:g}")
    if float(W(W.y_left)) < mu:
        raise ValueError(f"mu = {mu:g} exceeds the certified range on the left")
    if float(W(W.y_right)) < mu:
        raise ValueError(f"mu = {mu:g} exceeds the certified range on the right")
    target = np.array([float(mu)])
    y_minus = float(_branch_positions(W, target, W.well_location, W.y_left)[0])
    y_plus = float(_branch_positions(W, target, W.well_location, W.y_right)[0])
    return y_minus, y_plus


def _branch_positions(W: PotentialProfile, targets, inner: float, outer: float):
    """Solve W(y) = target on one monotone branch by vectorized safeguarded Newton.

    ``inner`` is the well-side end, ``outer`` the turning-point side; targets
    must lie between W(inner) and W(outer).  One scan of W on ``_SCAN_NODES``
    points from inner to outer brackets every target.  The start interpolates
    sqrt(W - W(inner)) linearly over the bracket: that root is nearly linear
    in y at the well bottom, where W itself is quadratic and a linear start
    would leave Newton halving its distance per step.  Newton steps use
    ``W.derivative``; a step that leaves its bracket falls back to the bracket
    midpoint.  A node is done when |W(y) - target| <= 4 eps_mach
    max(|target|, |W(inner)|), the largest |W| between the well and the root,
    or when its bracket has shrunk to rounding.  A step-size test would never
    fire near the bottom, where W' -> 0 leaves the root good only to about
    1e-11.  Nodes still open after ``_ROOT_ROUNDS`` rounds raise
    ``ConvergenceError``.
    """
    targets = np.asarray(targets, dtype=float)
    ys = np.linspace(inner, outer, _SCAN_NODES)
    ws = np.asarray(W(ys), dtype=float)
    # W lies between W(inner) and the target from the well to the root, so this
    # bounds |W| there: the scale of the residual's rounding
    tol = 4.0 * _EPS * np.maximum(np.abs(targets), abs(ws[0]))
    # W rises from inner to outer on a certified branch; the running maximum
    # keeps the scan sorted through tolerated plateaus
    scan_root = np.sqrt(np.maximum.accumulate(ws) - ws[0])
    root = np.sqrt(np.maximum(targets - ws[0], 0.0))
    k = np.clip(np.searchsorted(scan_root, root), 1, _SCAN_NODES - 1)
    a, b = ys[k - 1], ys[k]  # W(a) <= target <= W(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (root - scan_root[k - 1]) / (scan_root[k] - scan_root[k - 1])
    y = np.where(np.isfinite(frac), a + np.clip(frac, 0.0, 1.0) * (b - a), 0.5 * (a + b))

    live = np.arange(targets.size)
    for _ in range(_ROOT_ROUNDS):
        yl = y[live]
        r = np.asarray(W(yl), dtype=float) - targets[live]
        below = r < 0.0
        al = np.where(below, yl, a[live])
        bl = np.where(below, b[live], yl)
        a[live], b[live] = al, bl
        done = (np.abs(r) <= tol[live]) | (np.abs(bl - al) <= _EPS * (np.abs(al) + np.abs(bl)))
        keep = ~done
        live, yl, r, al, bl = live[keep], yl[keep], r[keep], al[keep], bl[keep]
        if live.size == 0:
            return y
        with np.errstate(divide="ignore", invalid="ignore"):
            step = yl - r / np.asarray(W.derivative(yl), dtype=float)
        inside = (step - al) * (step - bl) < 0.0
        y[live] = np.where(inside, step, 0.5 * (al + bl))
    side = "left" if outer < inner else "right"
    raise ConvergenceError(
        f"root solve on the {side} branch [{min(inner, outer):g}, {max(inner, outer):g}] "
        f"left {live.size} of {targets.size} targets open after {_ROOT_ROUNDS} rounds"
    )


@lru_cache(maxsize=1)
def _phase_rule():
    """Gauss-Legendre nodes and weights on [0, pi/2], built once per process."""
    xg, wg = np.polynomial.legendre.leggauss(_GL_NODES)
    phi = 0.25 * math.pi * (xg + 1.0)
    weights = 0.25 * math.pi * wg
    phi.setflags(write=False)
    weights.setflags(write=False)
    return phi, weights


def action(W: PotentialProfile, mu: float) -> float:
    """Classically allowed action int sqrt(mu - W) dy between the turning points.

    Split at the well bottom; on each branch substitute mu - W = (T sin phi)^2
    with T^2 = mu - W(bottom), so sqrt(mu - W) dy = T sin(phi) |dy/dphi| dphi
    with phi = 0 at the turning point and pi/2 at the bottom.  Integrating by
    parts moves the derivative onto sin(phi), and the boundary terms vanish:

        int sqrt(mu - W) dy = T int_0^{pi/2} cos(phi) |y(phi) - y_well| dphi.

    The integrand needs no W' and is smooth at the bottom, where
    |y - y_well| ~ T cos(phi) / sqrt(W''/2).  An error in y_well enters the
    two branches with opposite signs and cancels.
    """
    y_minus, y_plus = turning_points(W, mu)
    phi, weights = _phase_rule()
    base = float(W(W.well_location))
    t2 = mu - base
    if t2 <= 0.0:
        return 0.0
    targets = mu - t2 * np.sin(phi) ** 2
    total = 0.0
    for outer in (y_minus, y_plus):
        y = _branch_positions(W, targets, W.well_location, outer)
        total += float(weights @ (np.cos(phi) * np.abs(y - W.well_location)))
    return math.sqrt(t2) * total


def bs_eigenvalue(W: PotentialProfile, n: int) -> float:
    """Energy mu_n solving action(W, mu) = pi (2n - 1)."""
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    target = math.pi * (2 * n - 1)

    # the action vanishes at the well bottom; double the span until it passes the target
    lo, f_lo = W.well_value, -target
    span = 1.0
    try:
        while (f_hi := action(W, W.well_value + span) - target) < 0.0:
            lo, f_lo = W.well_value + span, f_hi
            span *= 2.0
            if span > 1e6:
                raise ConvergenceError("Bohr-Sommerfeld bracket failure: action never reaches target")
    except ValueError as exc:
        raise ConvergenceError(f"Bohr-Sommerfeld bracket failure: {exc}") from exc
    hi = W.well_value + span

    # bisection with a secant candidate each step
    mu = 0.5 * (lo + hi)
    for _ in range(200):
        if f_hi != f_lo:
            mu = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
        f_mu = action(W, mu) - target
        if abs(f_mu) <= _ACTION_TOL:
            return mu
        if f_mu > 0.0:
            hi, f_hi = mu, f_mu
        else:
            lo, f_lo = mu, f_mu
    raise ConvergenceError(f"Bohr-Sommerfeld iteration stalled at level {n}")

