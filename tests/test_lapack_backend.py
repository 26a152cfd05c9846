"""``grids`` loads scipy's LAPACK extension without running scipy.linalg's ``__init__``.

Whichever module supplies the routines, the results must be the bits that
``scipy.linalg`` gives: ``solve_tridiagonal`` is dgtsv, and ``eig_smallest``
makes the calls of ``eigh_tridiagonal(select="i", lapack_driver="stebz", tol=...)``.
"""

import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

import tfpainleve.grids as grids_module
import tfpainleve.spectrum as spectrum_module
from tfpainleve import (
    ConvergenceError,
    assemble_Lplus,
    assemble_M0,
    eig_smallest,
    solve_tridiagonal,
)
from tfpainleve.grids import TridiagonalOperator


def _operators(sol, gs1_eps01):
    # a zero off-diagonal splits the last operator into blocks of 10 and 15
    # nodes with interleaved spectra, where dstebz's block order is not ascending
    split = -np.ones(24)
    split[9] = 0.0
    return [
        (assemble_M0(sol), 8, "M0"),
        (assemble_Lplus(gs1_eps01, "Dirichlet"), 4, "LplusDirichlet"),
        (TridiagonalOperator(split, np.full(25, 2.0), split), 6, "generic"),
    ]


def _use_scipy_linalg(monkeypatch):
    monkeypatch.setattr(grids_module, "lapack", scipy.linalg.lapack)
    monkeypatch.setattr(spectrum_module, "lapack", scipy.linalg.lapack)


def test_extension_is_loaded_from_its_file():
    module = grids_module._load_flapack()
    assert isinstance(module.__spec__.loader, importlib.machinery.ExtensionFileLoader)
    assert module is not scipy.linalg.lapack
    assert grids_module.lapack.__name__ == "scipy.linalg._flapack"


def test_missing_extension_falls_back_to_scipy_linalg(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    assert grids_module._load_flapack() is scipy.linalg.lapack


def test_eigenpairs_bit_identical_through_both_modules(monkeypatch, sol, gs1_eps01):
    loaded = [eig_smallest(op, k, label) for op, k, label in _operators(sol, gs1_eps01)]
    _use_scipy_linalg(monkeypatch)
    for (op, k, label), mine in zip(_operators(sol, gs1_eps01), loaded):
        theirs = eig_smallest(op, k, label)
        np.testing.assert_array_equal(mine.eigenvalues, theirs.eigenvalues)
        np.testing.assert_array_equal(mine.eigenvectors, theirs.eigenvectors)


def test_eigenpairs_match_eigh_tridiagonal(sol, gs1_eps01):
    for op, k, label in _operators(sol, gs1_eps01):
        report = eig_smallest(op, k, label)
        # the first pass bisects to _BISECTION_TOL times the Gershgorin scale
        rad = np.zeros(op.n)
        rad[:-1] += np.abs(op.sub)
        rad[1:] += np.abs(op.sub)
        gershgorin = max(abs(float(np.min(op.diag - rad))), abs(float(np.max(op.diag + rad))))
        _, v = eigh_tridiagonal(
            op.diag, op.sub, select="i", select_range=(0, k - 1), lapack_driver="stebz",
            tol=spectrum_module._BISECTION_TOL * gershgorin,
        )
        imax = np.argmax(np.abs(v), axis=0)
        v = v * np.where(v[imax, np.arange(k)] < 0.0, -1.0, 1.0)
        np.testing.assert_array_equal(report.eigenvectors, v)
        # reported values are Rayleigh quotients of these vectors, within
        # rounding of the full-precision bisection values
        w = eigh_tridiagonal(
            op.diag, op.sub, eigvals_only=True, select="i", select_range=(0, k - 1),
            lapack_driver="stebz", tol=0.0,
        )
        scale = np.abs(op.diag).max() + 2.0 * np.abs(op.sub).max()
        np.testing.assert_allclose(report.eigenvalues, w, rtol=0.0,
                                   atol=4.0 * np.finfo(float).eps * scale)


def test_solve_tridiagonal_is_dgtsv(rng, monkeypatch):
    n = 300
    op = TridiagonalOperator(rng.random(n - 1) - 0.5, 2.0 + rng.random(n), rng.random(n - 1) - 0.5)
    rhs = rng.random(n)
    x = solve_tridiagonal(op, rhs)
    _, _, _, expected, info = scipy.linalg.lapack.dgtsv(op.sub, op.diag, op.sup, rhs)
    assert info == 0
    np.testing.assert_array_equal(x, expected)
    _use_scipy_linalg(monkeypatch)
    np.testing.assert_array_equal(solve_tridiagonal(op, rhs), x)


@pytest.mark.parametrize(
    "routine, info, error",
    [
        ("dstebz", -3, ValueError),
        ("dstein", -2, ValueError),
        ("dstebz", 1, ConvergenceError),
        ("dstein", 2, ConvergenceError),
    ],
)
def test_lapack_info_becomes_named_error(monkeypatch, routine, info, error):
    lapack = spectrum_module.lapack
    exact = getattr(lapack, routine)

    def failing(*args):
        *out, _ = exact(*args)
        return (*out, info)

    monkeypatch.setattr(lapack, routine, failing)
    op = TridiagonalOperator(-np.ones(19), np.full(20, 2.0), -np.ones(19))
    with pytest.raises(error, match=routine):
        eig_smallest(op, 3)


def test_illegal_dgtsv_argument_is_value_error(monkeypatch):
    exact = grids_module.lapack.dgtsv

    def failing(*args):
        *out, _ = exact(*args)
        return (*out, -2)

    monkeypatch.setattr(grids_module.lapack, "dgtsv", failing)
    op = TridiagonalOperator(-np.ones(19), np.full(20, 2.0), -np.ones(19))
    with pytest.raises(ValueError, match="^illegal dgtsv argument 2$"):
        solve_tridiagonal(op, np.ones(20))


def test_short_dstebz_report_is_convergence_error(monkeypatch):
    lapack = spectrum_module.lapack
    exact = lapack.dstebz

    def short(*args):
        m, *rest = exact(*args)
        return (m - 1, *rest)

    monkeypatch.setattr(lapack, "dstebz", short)
    op = TridiagonalOperator(-np.ones(19), np.full(20, 2.0), -np.ones(19))
    with pytest.raises(ConvergenceError, match="dstebz found 2 of the 3"):
        eig_smallest(op, 3)


def test_non_finite_operator_is_value_error():
    # dstebz reports info = 4 on a NaN diagonal; scipy.linalg rejected it as a ValueError
    op = TridiagonalOperator(-np.ones(2), [1.0, np.nan, 2.0], -np.ones(2))
    with pytest.raises(ValueError, match="non-finite"):
        eig_smallest(op, 1)
