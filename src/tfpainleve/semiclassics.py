"""Bohr-Sommerfeld quadrature for single-well potentials.

The quantization rule int sqrt(mu - W(y)) dy = pi (2n - 1) over the classically
allowed region predicts the large-n eigenvalues of -4 d^2/dy^2 + W.  The action
integral is split at the well bottom and each monotone branch is computed with
the substitution mu - W = (T sin phi)^2 and one integration by parts, which
remove the square-root turning point singularity and leave the smooth,
derivative-free integrand T cos(phi) |y(phi) - y_well| for Gauss-Legendre
quadrature.

One sampling of W serves both the certification and the root solves, and
nothing needs W': the scan on which ``from_function`` certifies the well is
kept on the profile, each branch's bracket table is built from it once, and
``_branch_positions`` brackets every quadrature node's position in that
table, then solves W(y) = target by vectorized secant steps kept inside the
bracket by midpoint fallbacks.
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
_ACTION_TOL = 1e-9
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


def _branch_positions(W: PotentialProfile, targets, side: int):
    """Solve W(y) = target on one monotone branch by vectorized safeguarded secant.

    ``side`` is -1 for the branch left of the well bottom and +1 for the one
    right of it; targets must lie between W.well_value and W at that end of
    the certified range, so the side's ``_bracket_table`` brackets each one.
    The start interpolates sqrt(W - W.well_value) linearly over the bracket:
    that root is nearly linear in y at the well bottom, where W is quadratic.
    Each secant step runs through the node's previous evaluation, at first
    the bracket's upper end, whose W the scan holds; a step that leaves the
    bracket falls back to its midpoint.  A node is done when |W(y) - target|
    <= 4 eps_mach max(|target|, |W.well_value|), the largest |W| between the
    well and the root, or when its bracket has shrunk to rounding; a
    step-size test would never fire near the bottom, where W' -> 0.  Nodes
    still open after ``_ROOT_ROUNDS`` rounds raise ``ConvergenceError``.
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
    y_prev, r_prev = ys[k], ws[k] - targets

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
            step = yl - r * (yl - y_prev[live]) / (r - r_prev[live])
        y_prev[live], r_prev[live] = yl, r
        inside = (step - al) * (step - bl) < 0.0
        y[live] = np.where(inside, step, 0.5 * (al + bl))
    name = "right" if side > 0 else "left"
    raise ConvergenceError(
        f"root solve on the {name} branch [{min(ys[0], ys[-1]):g}, {max(ys[0], ys[-1]):g}] "
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
    if not mu > W.well_value:
        raise ValueError(f"mu = {mu:g} is not above the well bottom {W.well_value:g}")
    for name, w_end in (("left", W.ws[0]), ("right", W.ws[-1])):
        if w_end < mu:
            raise ValueError(f"mu = {mu:g} exceeds the certified range on the {name}")
    phi, weights = _phase_rule()
    t2 = mu - W.well_value
    targets = mu - t2 * np.sin(phi) ** 2
    total = 0.0
    for side in (-1, 1):
        y = _branch_positions(W, targets, side)
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

    # regula falsi with the Illinois step (an end kept twice in a row has its
    # f halved), falling back to bisection when the candidate leaves the bracket
    mu = 0.5 * (lo + hi)
    kept = None
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
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo = mu, f_mu
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
    raise ConvergenceError(f"Bohr-Sommerfeld iteration stalled at level {n}")

