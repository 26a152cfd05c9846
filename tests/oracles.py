"""Independent oracles the test suite checks the package against.

Everything here is deliberately built from different machinery than the
package: adaptive Runge-Kutta shooting instead of the damped-Newton boundary
value solve, dense symmetric eigensolvers and a numpy Sturm count instead of
the LAPACK tridiagonal eigensolver, a mirrored full-line assembly instead of
the half-line L+ sectors, extended-precision inverse iteration
instead of double-precision eigenvectors,
direct enumeration instead of the generator, symbolic quadrature instead
of the trapezoid energy, and Brent turning points with adaptive quadrature
instead of the Newton-solved Gauss-Legendre action.  None of these helpers
import from tfpainleve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

# Frozen output of shoot_nu0_at_zero(), recorded when the oracle was first
# run; guards against silent drift of the oracle itself.
SHOOTING_NU0_AT_ZERO = 0.654029331355
SHOOTING_TOL = 1.5e-8

# Frozen c_bound of mp_decay_constants() for M0 modes 1-4 on the default layer
# grid (6001 nodes on [-20, 40]), relative drift guard of the oracle itself.
MP_DECAY_C_BOUND = (0.90618775514, 6.6297595897, 36.138967452, 164.44637376)
MP_DECAY_RTOL = 1e-8


def _rhs(y, state):
    nu, dnu = state
    return (dnu, (nu**3 - y * nu) / 4.0)


def _classify(v0: float, y_start: float, y_end: float) -> float:
    """Integrate leftward from (v0, asymptote slope); sign of the blowup."""
    dv0 = 0.5 / np.sqrt(y_start) + 1.25 * y_start ** (-3.5)
    blow = lambda y, s: abs(s[0]) - 3.0  # noqa: E731
    blow.terminal = True
    sol = solve_ivp(
        _rhs,
        (y_start, y_end),
        (v0, dv0),
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
        events=blow,
        dense_output=True,
    )
    return sol


@lru_cache(maxsize=1)
def shoot_nu0_at_zero(y_start: float = 8.0, y_end: float = -12.0) -> float:
    """Connection value nu0(0) by bisection shooting on the initial height.

    Trajectories leaving the connecting orbit blow up to +inf or -inf on the
    left; bisecting the starting value at y_start pins the orbit, and the
    recorded value at y = 0 is accurate to roughly machine precision times
    the leftover growth factor.
    """
    lo, hi = 2.80, 2.85
    assert np.sign(_classify(lo, y_start, y_end).y[0][-1]) < 0
    assert np.sign(_classify(hi, y_start, y_end).y[0][-1]) > 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.sign(_classify(mid, y_start, y_end).y[0][-1]) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16 * hi:
            break
    final = _classify(0.5 * (lo + hi), y_start, y_end)
    return float(final.sol(0.0)[0])


@lru_cache(maxsize=1)
def tail_coefficients(n_max: int = 8) -> tuple:
    """Right-tail coefficients b_n by symbolic substitution of the series.

    Substitutes sqrt(y) * sum B_n y^(-3n/2) with unknown B_n into
    4 nu'' + y nu - nu^3, expands, and solves the triangular conditions order
    by order in sympy.  Returns the b_n = B_n 2^(3n/2) normalization, which is
    integer through n = 8.  No index bookkeeping of our own: series products
    and exponent collection are sympy's.
    """
    import sympy as sp

    y = sp.Symbol("y", positive=True)
    B = [sp.Symbol(f"B{n}") for n in range(n_max + 1)]
    nu = sum(
        B[n] * y ** (sp.Rational(1, 2) - sp.Rational(3, 2) * n)
        for n in range(n_max + 1)
    )
    t = sp.Symbol("t", positive=True)  # y = t^2 makes every exponent integral
    expr = sp.expand((4 * sp.diff(nu, y, 2) + y * nu - nu**3).subs(y, t**2))
    known = {B[0]: sp.Integer(1)}  # increasing-profile root of B0 - B0^3 = 0
    for n in range(1, n_max + 1):
        row = expr.coeff(t, 3 - 3 * n)
        eq = sp.expand(row.subs(known))
        sols = sp.solve(eq, B[n])
        known[B[n]] = sols[0] if sols else sp.Integer(0)
    return tuple(int(known[B[n]] * 2 ** sp.Rational(3 * n, 2)) for n in range(n_max + 1))


def sturm_count(op, shifts) -> np.ndarray:
    """Number of eigenvalues of a symmetric tridiagonal op below each shift.

    Counts the negative pivots of op - shift I (Sylvester's law of inertia),
    row by row in numpy for all shifts at once; tiny pivots are replaced by
    -pivmin so the recurrence never divides by zero.
    """
    diag = np.asarray(op.diag, dtype=float)
    b2 = np.asarray(op.sub, dtype=float) ** 2
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    pivmin = np.finfo(float).tiny * max(float(b2.max(initial=0.0)), 1.0)
    q = diag[0] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, diag.size):
        q = diag[i] - shifts - b2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0.0
    return count


def dense(op) -> np.ndarray:
    """The full matrix of a TridiagonalOperator."""
    return np.diag(op.diag) + np.diag(op.sub, -1) + np.diag(op.sup, 1)


def full_line_lplus(eps: float, r, eta):
    """Bands (sub, diag, sup) of L+ = -eps^2 d^2/dx^2 + 3 eta^2 - 1 + x^2 on the full line.

    The half-line profile eta on the uniform nodes r (r[0] = 0, Dirichlet at
    r[-1]) is mirrored to the nodes -r[-2], ..., 0, ..., r[-2], with Dirichlet
    ends.  Its spectrum is the union of the even (Neumann) and odd (Dirichlet)
    half-line sectors.
    """
    r = np.asarray(r, dtype=float)
    eta = np.asarray(eta, dtype=float)
    h = (r[-1] - r[0]) / (r.size - 1)
    x = np.concatenate([-r[-2:0:-1], r[:-1]])
    e = np.concatenate([eta[-2:0:-1], eta[:-1]])
    c = eps**2 / h**2
    diag = 2.0 * c + 3.0 * e * e - 1.0 + x * x
    off = np.full(diag.size - 1, -c)
    return off, diag, off.copy()


def dense_smallest(op, k: int) -> np.ndarray:
    """k smallest eigenvalues of a TridiagonalOperator via LAPACK dense eigh."""
    return np.linalg.eigvalsh(dense(op))[:k]


def mp_decay_constants(op, nodes, k: int, dps: int = 40):
    """Decay constants of the k lowest eigenvectors of a symmetric tridiagonal op.

    Returns (c_bound, c_deriv) as float arrays: max |u| e^{|y|} and
    max |u'| e^{|y|} / (|y| + 1) over every node, for eigenvectors of unit
    discrete l2 norm on the uniform ``nodes``.  u' is the 5-point interior,
    3-point centered and 3-point one-sided end stencil.  See _mp_decay_constants.
    """
    return _mp_decay_constants(
        np.asarray(op.diag, dtype=float).tobytes(),
        np.asarray(op.sub, dtype=float).tobytes(),
        np.asarray(nodes, dtype=float).tobytes(),
        k,
        dps,
    )


@lru_cache(maxsize=4)
def _mp_decay_constants(diag_b: bytes, sub_b: bytes, nodes_b: bytes, k: int, dps: int):
    """Extended-precision inverse iteration, cached on the raw operator bytes.

    The shifts are the LAPACK (dstebz) eigenvalues in double precision, the
    same routine the package uses, so they are not what makes this an
    oracle: an eigenvector does not depend on the shift's last digits, and
    the vectors come from inverse iteration at ``dps`` digits on the same
    matrix entries, so entries far below double-precision roundoff
    (|u| ~ 1e-45 at the grid ends) are resolved and e^{|y|} amplifies no
    noise.  The maxima run over the whole grid with no window.
    """
    import mpmath
    from scipy.linalg import eigh_tridiagonal

    diag = np.frombuffer(diag_b)
    sub = np.frombuffer(sub_b)
    y = np.frombuffer(nodes_b)
    n = diag.size
    shifts = eigh_tridiagonal(diag, sub, eigvals_only=True, select="i", select_range=(0, k - 1))
    c_bound = np.empty(k)
    c_deriv = np.empty(k)
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        a = [mpf(float(d)) for d in diag]
        b = [mpf(float(s)) for s in sub]
        ay = [abs(mpf(float(t))) for t in y]
        h = (mpf(float(y[-1])) - mpf(float(y[0]))) / (n - 1)
        growth = [mpmath.exp(t) for t in ay]
        tol = mpf(10) ** (5 - dps)
        for j in range(k):
            # LU of (A - sigma I) without pivoting, reused by every iteration
            sigma = mpf(float(shifts[j]))
            piv = [a[0] - sigma]
            mult = []
            for i in range(1, n):
                mult.append(b[i - 1] / piv[-1])
                piv.append(a[i] - sigma - mult[-1] * b[i - 1])
            u = [mpf(1)] * n
            for _ in range(12):
                x = list(u)
                for i in range(1, n):
                    x[i] -= mult[i - 1] * x[i - 1]
                x[-1] /= piv[-1]
                for i in range(n - 2, -1, -1):
                    x[i] = (x[i] - b[i] * x[i + 1]) / piv[i]
                norm = mpmath.sqrt(mpmath.fsum(v * v for v in x))
                x = [v / norm for v in x]
                if mpmath.fdot(x, u) < 0:
                    x = [-v for v in x]
                change = max(abs(p - q) for p, q in zip(x, u))
                u = x
                if change < tol:
                    break
            else:
                raise RuntimeError(f"mp inverse iteration did not settle for mode {j + 1}")
            du = [(-3 * u[0] + 4 * u[1] - u[2]) / (2 * h), (u[2] - u[0]) / (2 * h)]
            du += [
                (u[i - 2] - 8 * u[i - 1] + 8 * u[i + 1] - u[i + 2]) / (12 * h)
                for i in range(2, n - 2)
            ]
            du += [(u[-1] - u[-3]) / (2 * h), (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)]
            c_bound[j] = float(max(abs(v) * g for v, g in zip(u, growth)))
            c_deriv[j] = float(
                max(abs(d) * g / (t + 1) for d, g, t in zip(du, growth, ay))
            )
    return c_bound, c_deriv


def quad_action(profile, mu: float) -> float:
    """Action int sqrt(mu - W) dy of a single-well profile by adaptive quadrature.

    Turning points by Brent's method on each side of the well, then QUADPACK
    on each branch directly in y: its extrapolation absorbs the square-root
    endpoint singularities.  Reads only the profile's evaluator and its
    well and range fields.
    """
    w = profile.evaluator
    g = lambda y: float(w(y)) - mu  # noqa: E731
    well = profile.well_location
    y_minus = brentq(g, profile.y_left, well, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    y_plus = brentq(g, well, profile.y_right, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    f = lambda y: np.sqrt(max(-g(y), 0.0))  # noqa: E731
    total = 0.0
    for a, b in ((y_minus, well), (well, y_plus)):
        total += quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
    return total


def brute_triples(n: int):
    """All (i, j, k) with i+j+k = n and every entry < n, by raw enumeration."""
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i + j + k == n:
                    out.append((i, j, k))
    return out


def tf_energy_1d() -> Fraction:
    """Closed-form d=1 Thomas-Fermi energy, by symbolic quadrature."""
    import sympy as sp

    r = sp.Symbol("r", positive=True)
    eta_sq = 1 - r**2
    integrand = (r**2 - 1) * eta_sq + sp.Rational(1, 2) * eta_sq**2
    val = 2 * sp.integrate(integrand, (r, 0, 1))
    return Fraction(int(sp.numer(val)), int(sp.denom(val)))
