"""Spectra of the layer operator M0 and the trap linearization L+.

M0 = -4 d^2/dy^2 + W0(y) acts on the layer coordinate; its eigenvalues mu_n
are the eps^(2/3)-scaled limits of the trap linearization

    L+ = -eps^2 d^2/dx^2 + 3 eta^2 - 1 + x^2,

a double-well operator whose spectrum splits into even / odd sectors solved on
the half line with a Neumann / Dirichlet condition at the origin.  Eigenpairs
come from LAPACK Sturm-count bisection (dstebz) and inverse iteration (dstein)
through scipy, and are accepted only after a residual check, with the
Rayleigh quotient reported; the scaling study tabulates lambda / eps^(2/3)
against mu_n, and decay certificates bound |u_m(y)| by C_m exp(-|y|).

The certificates are for the discrete M0 eigenvectors of unit l2 norm (so C_m
scales like sqrt(h)) and are taken over the window W0(y) < mu_m + 8; beyond it
the computed entries are roundoff that e^{|y|} would amplify.  C_m grows
roughly like e^{mu_m}, so a cap on it is a threshold of the caller's choosing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from ._io import write_csv
from .corrections import CorrectionSet
from .grids import (
    TridiagonalOperator,
    first_difference,
    from_boundary_layer,
    make_operator,
    uniform_grid,
)
from .groundstate import GroundState, solve_ground_state
from .painleve import ConvergenceError, PainleveSolution, w0_eval

_BOUNDARY_TAGS = ("Neumann", "Dirichlet", "FullLine")
_POSITIVE_TAGS = ("M0", "LplusNeumann", "LplusDirichlet", "LplusFullLine")


@dataclass(frozen=True)
class SpectrumReport:
    """Smallest eigenvalues of one operator, optionally with eigenvectors.

    ``eigenvectors`` holds one column per eigenvalue, unit discrete l2 norm;
    ``nodes`` are the coordinates the unknowns live on; ``scaled`` is
    eigenvalues / eps^(2/3) when an eps is attached.
    """

    operator: str
    eigenvalues: np.ndarray
    eps: float | None = None
    scaled: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    nodes: np.ndarray | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) <= 0.0):
            raise ValueError("eigenvalues must be strictly increasing (simple spectrum)")
        if self.operator in _POSITIVE_TAGS and ev[0] <= 0.0:
            raise ValueError(f"{self.operator} must be positive definite, got lambda_1 = {ev[0]:.3e}")
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        for name in ("scaled", "eigenvectors", "nodes"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


def assemble_M0(sol: PainleveSolution) -> TridiagonalOperator:
    """Dirichlet discretization of -4 d^2/dy^2 + W0 on the interior layer nodes."""
    h = sol.grid.spacing
    diag = 8.0 / h**2 + sol.w0[1:-1]
    off = np.full(diag.size - 1, -4.0 / h**2)
    return make_operator(off, diag, off)


def m0_nodes(sol: PainleveSolution) -> np.ndarray:
    """Coordinates of the M0 unknowns (interior nodes of the layer grid)."""
    return sol.grid.nodes[1:-1]


def assemble_Lplus(gs: GroundState, bc: str) -> TridiagonalOperator:
    """FD matrix for -eps^2 d^2/dx^2 + 3 eta^2 - 1 + x^2 with the requested condition.

    Neumann / Dirichlet at the origin select the even / odd sector of the full
    line; FullLine assembles on the mirrored interval as a cross-check.  The
    Neumann ghost row is symmetrized by scaling the origin unknown by sqrt(2),
    which leaves the spectrum unchanged and makes the even sector match the
    full-line assembly exactly.
    """
    if gs.dimension != 1:
        raise ValueError(f"L+ assembly needs a d=1 profile, got d={gs.dimension}")
    if bc not in _BOUNDARY_TAGS:
        raise ValueError(f"unknown boundary tag {bc!r}")
    h = gs.grid.spacing
    r = gs.grid.nodes
    v = 3.0 * gs.eta**2 - 1.0 + r * r
    c = gs.eps**2 / h**2
    if bc == "Neumann":
        diag = 2.0 * c + v[:-1]
        off = np.full(diag.size - 1, -c)
        off[0] = -math.sqrt(2.0) * c
    elif bc == "Dirichlet":
        diag = 2.0 * c + v[1:-1]
        off = np.full(diag.size - 1, -c)
    else:
        vfull = np.concatenate([v[-2:0:-1], v[:-1]])
        diag = 2.0 * c + vfull
        off = np.full(diag.size - 1, -c)
    return make_operator(off, diag, off)


def operator_nodes(gs: GroundState, bc: str) -> np.ndarray:
    """Coordinates matching the unknown ordering of assemble_Lplus."""
    if bc not in _BOUNDARY_TAGS:
        raise ValueError(f"unknown boundary tag {bc!r}")
    r = gs.grid.nodes
    if bc == "Neumann":
        return r[:-1].copy()
    if bc == "Dirichlet":
        return r[1:-1].copy()
    return np.concatenate([-r[-2:0:-1], r[:-1]])


def eig_smallest(
    op: TridiagonalOperator,
    k: int,
    want_vectors: bool = False,
    label: str = "generic",
    eps: float | None = None,
    nodes: np.ndarray | None = None,
    tol: float = 1e-10,
) -> SpectrumReport:
    """k smallest eigenvalues by LAPACK Sturm bisection, checked by Rayleigh quotients.

    LAPACK dstebz bisects Sturm counts for the eigenvalues and dstein supplies
    the eigenvectors by inverse iteration, reorthogonalizing clusters, so
    exponentially close double-well pairs are still resolved.  Each returned
    pair must have residual |A u - lambda u| <= 64 eps_mach times the
    Gershgorin scale; the reported eigenvalue is the Rayleigh quotient of its
    vector, which may drift from the bisection value by at most
    max(100 tol, 1e-8) times that scale.  Each vector's largest-magnitude
    entry is positive.
    """
    if not op.symmetric:
        raise ValueError("eig_smallest needs a symmetric operator")
    n = op.n
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} out of range for operator size {n}")
    rad = np.zeros(n)
    rad[:-1] += np.abs(op.sub)
    rad[1:] += np.abs(op.sub)
    scale = max(abs(float(np.min(op.diag - rad))), abs(float(np.max(op.diag + rad))))
    if scale == 0.0:
        raise ValueError("zero operator")
    try:
        approx, vecs = eigh_tridiagonal(
            op.diag, op.sub, select="i", select_range=(0, k - 1), lapack_driver="stebz"
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"LAPACK tridiagonal eigensolve failed: {exc}") from exc

    tv = np.column_stack([op.apply(u) for u in vecs.T])
    evals = np.einsum("ij,ij->j", vecs, tv)
    residual = np.linalg.norm(tv - evals * vecs, axis=0)
    res_tol = 64.0 * np.finfo(float).eps * scale
    drift_tol = max(100.0 * tol * scale, 1e-8 * scale)
    for j in range(k):
        if not residual[j] <= res_tol:
            raise ConvergenceError(
                f"eigenpair {j + 1} residual {residual[j]:.3e} exceeds {res_tol:.3e}"
            )
        if abs(evals[j] - approx[j]) > drift_tol:
            raise ConvergenceError(
                f"Rayleigh quotient drifted from its bisection value for eigenvalue {j + 1}"
            )
    imax = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[imax, np.arange(k)] < 0.0, -1.0, 1.0)

    return SpectrumReport(
        operator=label,
        eigenvalues=evals,
        eps=eps,
        scaled=None if eps is None else evals / eps ** (2.0 / 3.0),
        eigenvectors=vecs if want_vectors else None,
        nodes=None if nodes is None else np.asarray(nodes, dtype=float),
    )


@dataclass(frozen=True)
class ScalingTable:
    """Half-line eigenvalue pairs over an eps ladder against the M0 limits.

    Row order: eps descending, pair index n = 1..n_pairs within each eps.
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


def scaling_study(
    sol: PainleveSolution,
    cset: CorrectionSet,
    eps_list,
    n_pairs: int = 3,
    nodes_per_layer: int = 40,
    gs_tol: float = 1e-8,
    eig_tol: float = 1e-10,
    mu=None,
) -> ScalingTable:
    """Tabulate lambda_{2n-1}, lambda_{2n} and their eps^(2/3) scalings vs mu_n.

    Ground states are seeded with the composite approximation and solved one
    eps at a time in descending order.  ``mu`` supplies M0 eigenvalues
    mu_1, mu_2, ... (at least n_pairs of them) when the caller has already
    solved M0 for ``sol``; otherwise the n_pairs smallest are computed here.
    """
    if cset.dimension != 1:
        raise ValueError(f"scaling study needs d=1 corrections, got d={cset.dimension}")
    eps_arr = np.asarray(sorted(set(float(e) for e in eps_list), reverse=True))
    if eps_arr.size == 0:
        raise ValueError("empty eps list")
    if mu is None:
        mu = eig_smallest(assemble_M0(sol), n_pairs, label="M0", tol=eig_tol).eigenvalues
    elif len(mu) < n_pairs:
        raise ValueError(f"mu holds {len(mu)} M0 eigenvalues, need n_pairs = {n_pairs}")

    rows_eps, rows_n = [], []
    l_odd, l_even, s_odd, s_even, mus, gaps = [], [], [], [], [], []
    for eps in eps_arr:
        gs = solve_ground_state(
            eps, 1, nodes_per_layer=nodes_per_layer, tol=gs_tol,
            painleve_sol=sol, correction_set=cset,
        )
        lam_n = eig_smallest(
            assemble_Lplus(gs, "Neumann"), n_pairs, label="LplusNeumann", eps=eps, tol=eig_tol
        ).eigenvalues
        lam_d = eig_smallest(
            assemble_Lplus(gs, "Dirichlet"), n_pairs, label="LplusDirichlet", eps=eps, tol=eig_tol
        ).eigenvalues
        s = eps ** (2.0 / 3.0)
        for i in range(n_pairs):
            rows_eps.append(eps)
            rows_n.append(i + 1)
            l_odd.append(lam_n[i])
            l_even.append(lam_d[i])
            s_odd.append(lam_n[i] / s)
            s_even.append(lam_d[i] / s)
            mus.append(mu[i])
            gaps.append((lam_d[i] - lam_n[i]) / lam_d[i])
    return ScalingTable(
        eps=np.asarray(rows_eps),
        n=np.asarray(rows_n, dtype=float),
        lambda_odd=np.asarray(l_odd),
        lambda_even=np.asarray(l_even),
        scaled_odd=np.asarray(s_odd),
        scaled_even=np.asarray(s_even),
        mu=np.asarray(mus),
        pair_gap=np.asarray(gaps),
    )


@dataclass(frozen=True)
class DecayCertificate:
    """Smallest constants bounding an M0 eigenvector by C exp(-|y|).

    c_bound is max |u_m| e^{|y|} and c_deriv the analogous constant for the
    derivative envelope (|y|+1) e^{-|y|}, both taken over the decay window of
    decay_check.  u_m has unit discrete l2 norm, so both constants scale like
    sqrt(h); multiply by 1/sqrt(h) for the normalization integral u^2 dy = 1.
    within_bound records c_bound <= the cap the caller passed; the constants
    grow roughly like e^{mu_m}, so no cap holds uniformly in m.
    """

    m: int
    c_bound: float
    c_deriv: float
    within_bound: bool


_DECAY_WINDOW = 8.0


def decay_check(report: SpectrumReport, sol: PainleveSolution, cap: float = 100.0):
    """Decay certificates for every eigenvector in an M0 report built from ``sol``.

    The maxima run over the window W0(y) < mu_m + 8 only, where the local decay
    rate sqrt((W0 - mu_m)/4) is below sqrt(2).  Outside it |u|'' >= 2|u| (up to
    the stencil), so by comparison |u| decays at least like e^{-(|y| - |y_edge|)}
    and in exact arithmetic the whole-grid maximum equals the window maximum.
    The computed entries out there are roundoff (|u| ~ 1e-16), which
    e^{|y|} ~ 1e17 at the grid ends would otherwise report as a constant.
    The certificates describe the discrete eigenvector on the truncated grid,
    not the eigenfunction on the whole line.
    """
    if report.operator != "M0":
        raise ValueError(f"decay certificates apply to M0 reports, got {report.operator!r}")
    if report.eigenvectors is None or report.nodes is None:
        raise ValueError("decay_check needs eigenvectors and their nodes")
    y = report.nodes
    grid = uniform_grid(y[0], y[-1], y.size)
    w0 = w0_eval(sol, y)
    growth = np.exp(np.abs(y))
    deriv_growth = growth / (np.abs(y) + 1.0)
    certs = []
    for j, mu in enumerate(report.eigenvalues):
        window = w0 < mu + _DECAY_WINDOW
        u = report.eigenvectors[:, j]
        c = float(np.max((np.abs(u) * growth)[window]))
        du = first_difference(u, grid)
        cd = float(np.max((np.abs(du) * deriv_growth)[window]))
        certs.append(DecayCertificate(m=j + 1, c_bound=c, c_deriv=cd, within_bound=c <= cap))
    return tuple(certs)


def w_eps(gs: GroundState, y):
    """Scaled layer potential W_eps(y) = 3 nu_eps(y)^2 - y from a d=1 profile.

    nu_eps(y) = eps^(-1/3) eta(x(y)) with x(y) the inverse layer map; satisfies
    V_eps(x) = eps^(2/3) W_eps(y(x)) with V_eps = 3 eta^2 - 1 + x^2.
    """
    if gs.dimension != 1:
        raise ValueError(f"layer potential needs a d=1 profile, got d={gs.dimension}")
    scalar = np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = from_boundary_layer(y, gs.eps)
    if np.any(x > gs.grid.b + 1e-12):
        raise ValueError(f"y = {y.min():.3f} maps to x = {x.max():.3f} outside the radial grid")
    eta = gs.interp(x)
    out = 3.0 * eta * eta / gs.eps ** (2.0 / 3.0) - y
    return float(out[0]) if scalar else out
