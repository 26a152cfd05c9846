"""Spectra of the layer operator M0 and the trap linearization L+.

M0 = -4 d^2/dy^2 + W0(y) acts on the layer coordinate; its eigenvalues mu_n
are the eps^(2/3)-scaled limits of the trap linearization

    L+ = -eps^2 d^2/dx^2 + 3 eta^2 - 1 + x^2,

a double-well operator whose spectrum splits into even / odd sectors solved on
the half line with a Neumann / Dirichlet condition at the origin.  Eigenpairs
come from LAPACK Sturm-count bisection (dstebz) and inverse iteration (dstein)
in scipy's LAPACK extension, loaded by ``grids`` without scipy.linalg, and are
accepted only after a residual check, with the Rayleigh quotient reported; the
scaling study tabulates lambda / eps^(2/3) against mu_n.
"""

from __future__ import annotations

import numpy as np

from ._io import write_csv
from .grids import TridiagonalOperator, lapack, record
from .groundstate import GroundState, trap_operator
from .painleve import ConvergenceError

_POSITIVE_TAGS = ("M0", "LplusNeumann", "LplusDirichlet")
# dstebz's first-pass bisection width, relative to the operator's infinity-norm
_BISECTION_TOL = 1e-10


@record
class SpectrumReport:
    """Smallest eigenvalues of one operator with their eigenvectors.

    ``eigenvectors`` holds one column per eigenvalue, unit discrete l2 norm.
    """

    operator: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        ev = self.eigenvalues
        if np.any(np.diff(ev) <= 0.0):
            raise ValueError("eigenvalues must be strictly increasing (simple spectrum)")
        if self.operator in _POSITIVE_TAGS and ev[0] <= 0.0:
            raise ValueError(f"{self.operator} must be positive definite, got lambda_1 = {ev[0]:.3e}")


def check_d1(dimension: int) -> None:
    """ValueError unless dimension is 1: L+ is assembled, and its spectrum studied, in d = 1 only."""
    if dimension != 1:
        raise ValueError(
            f"the spectrum is d = 1 only: L+ needs a d=1 profile, got dimension {dimension}"
        )


def assemble_Lplus(gs: GroundState, bc: str) -> TridiagonalOperator:
    """FD matrix for -eps^2 d^2/dx^2 + 3 eta^2 - 1 + x^2 with the requested condition.

    This is ``trap_operator``, the d = 1 ground-state Newton Jacobian, at the
    solution, symmetrized by scaling the origin unknown by sqrt(2): the
    off-diagonals -sqrt(sub * sup) are -eps^2 / h^2, times sqrt(2) at the
    origin.  The spectrum is unchanged, and the even sector matches the
    assembly on the mirrored interval exactly.  Neumann / Dirichlet at the
    origin select the even / odd sector: the matrix, or it without the origin row.
    """
    check_d1(gs.dimension)
    if bc not in ("Neumann", "Dirichlet"):
        raise ValueError(f"unknown boundary tag {bc!r}")
    op = trap_operator(gs.eps, 1, gs.grid, gs.eta[:-1])
    off = -np.sqrt(op.sub * op.sup)
    first = 1 if bc == "Dirichlet" else 0
    return TridiagonalOperator(off[first:], op.diag[first:], off[first:])


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise ConvergenceError(f"LAPACK {routine} did not converge (info = {info})")


def _tridiagonal_pairs(d: np.ndarray, e: np.ndarray, k: int, abstol: float):
    """k smallest eigenpairs, ascending: the calls eigh_tridiagonal makes for stebz.

    dstebz (range 2: indices 1..k, bisection to width ``abstol``, where 0
    means ulp * |T|, block order "B" as dstein needs), dstein on the m values
    found, then an argsort into matrix order.  One node has the pair
    (d[0], [[1.0]]); dstebz rejects n = 1 arrays.
    """
    if d.size == 1:
        return d.copy(), np.ones((1, 1))
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, abstol, "B")
    _check_info("dstebz", info)
    if m < k:
        raise ConvergenceError(f"LAPACK dstebz found {m} of the {k} smallest eigenvalues")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info("dstein", info)
    order = np.argsort(w)
    return w[order], v[:, order]


def eig_smallest(op: TridiagonalOperator, k: int, label: str = "generic") -> SpectrumReport:
    """k smallest eigenvalues by LAPACK Sturm bisection, checked by Rayleigh quotients.

    LAPACK dstebz bisects Sturm counts for the eigenvalues and dstein supplies
    the eigenvectors by inverse iteration, reorthogonalizing clusters, so
    exponentially close double-well pairs are still resolved.  Each returned
    pair must have residual |A u - lambda u| <= 64 eps_mach ||A||_inf
    (``op.norm``); the reported eigenvalue is the Rayleigh quotient of its
    vector, which may drift from the bisection value by at most 1e-8 ||A||_inf.
    Each vector's largest-magnitude entry is positive.

    Bisection stops at width _BISECTION_TOL ||A||_inf: the Rayleigh
    quotient's error is quadratic in the vector's, so it supplies the last
    digits.  If any pair fails either gate, the solve is repeated once with
    bisection to full precision (abstol 0), and only that pass may raise.
    """
    if not np.array_equal(op.sub, op.sup):
        raise ValueError("eig_smallest needs a symmetric operator")
    if not 1 <= k <= op.n:
        raise ValueError(f"k = {k} out of range for operator size {op.n}")
    norm = op.norm
    if norm == 0.0:
        raise ValueError("zero operator")
    if not np.isfinite(norm):
        raise ValueError("operator has non-finite entries")
    res_tol = 64.0 * np.finfo(float).eps * norm
    drift_tol = 1e-8 * norm
    for abstol in (_BISECTION_TOL * norm, 0.0):
        approx, vecs = _tridiagonal_pairs(op.diag, op.sub, k, abstol)
        # a row-major block, so the product, quotients and residuals sum in the
        # order of one op.apply per column
        vecs = np.ascontiguousarray(vecs)
        tv = op.apply(vecs)
        evals = np.einsum("ij,ij->j", vecs, tv)
        residual = np.linalg.norm(tv - evals * vecs, axis=0)
        bad = ~(residual <= res_tol) | (np.abs(evals - approx) > drift_tol)
        if not bad.any():
            break
    else:
        j = int(np.argmax(bad))
        if not residual[j] <= res_tol:
            raise ConvergenceError(
                f"eigenpair {j + 1} residual {residual[j]:.3e} exceeds {res_tol:.3e}"
            )
        raise ConvergenceError(
            f"Rayleigh quotient drifted from its bisection value for eigenvalue {j + 1}"
        )
    imax = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[imax, np.arange(k)] < 0.0, -1.0, 1.0)

    return SpectrumReport(operator=label, eigenvalues=evals, eigenvectors=vecs)


@record
class ScalingTable:
    """Half-line eigenvalue pairs over an eps ladder against the M0 limits.

    Row order: the states' order, pair index n = 1..n_pairs within each eps.
    lambda_odd / lambda_even are the odd- / even-indexed full-line eigenvalues
    lambda_{2n-1} (Neumann sector) and lambda_{2n} (Dirichlet sector);
    pair_gap is the relative split (lambda_even - lambda_odd) / lambda_even.
    """

    eps: np.ndarray
    n: np.ndarray
    lambda_odd: np.ndarray
    lambda_even: np.ndarray
    scaled_odd: np.ndarray
    scaled_even: np.ndarray
    mu: np.ndarray
    pair_gap: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["eps", "n", "lambda_odd", "lambda_even", "scaled_odd", "scaled_even", "mu_n", "pair_gap"],
            [
                self.eps,
                self.n,
                self.lambda_odd,
                self.lambda_even,
                self.scaled_odd,
                self.scaled_even,
                self.mu,
                self.pair_gap,
            ],
        )


def scaling_study(states, mu, n_pairs: int) -> ScalingTable:
    """Tabulate lambda_{2n-1}, lambda_{2n} and their eps^(2/3) scalings vs mu_n.

    ``states`` are d = 1 ground states, tabulated in the order given, each
    eigen-solved as it is drawn (a lazy ladder is solved one eps at a time).
    ``mu`` holds the smallest M0 eigenvalues mu_1, mu_2, ..., at least n_pairs.
    """
    if len(mu) < n_pairs:
        raise ValueError(f"mu holds {len(mu)} M0 eigenvalues, need n_pairs = {n_pairs}")

    eps, odd, even = [], [], []
    for gs in states:
        eps.append(gs.eps)
        odd.append(eig_smallest(assemble_Lplus(gs, "Neumann"), n_pairs, label="LplusNeumann"))
        even.append(eig_smallest(assemble_Lplus(gs, "Dirichlet"), n_pairs, label="LplusDirichlet"))
    if not eps:
        raise ValueError("scaling_study needs at least one ground state")
    lam_odd, lam_even = (np.concatenate([r.eigenvalues for r in col]) for col in (odd, even))
    scale = np.repeat([e ** (2.0 / 3.0) for e in eps], n_pairs)
    return ScalingTable(
        eps=np.repeat(np.asarray(eps, dtype=float), n_pairs),
        n=np.tile(np.arange(1.0, n_pairs + 1.0), len(eps)),
        lambda_odd=lam_odd,
        lambda_even=lam_even,
        scaled_odd=lam_odd / scale,
        scaled_even=lam_even / scale,
        mu=np.tile(np.asarray(mu[:n_pairs], dtype=float), len(eps)),
        pair_gap=(lam_even - lam_odd) / lam_even,
    )
