"""End-to-end acceptance checks, one test per criterion.

Each criterion exercises the public API the way a study script would and
pins the result against an independent oracle or a stated tolerance.  The
per-module suites calibrate the internals; these tests are the contract.
"""

import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import oracles
from decay import decay_check
from oracles import thomas_fermi
from surrogates import simplified
from tfpainleve import (
    TridiagonalOperator,
    assemble_M0,
    bn_coefficients,
    bs_eigenvalue,
    eig_smallest,
    from_solution,
    remainder_study,
    scaling_study,
    second_difference,
    solve_ground_state,
    solve_hastings_mcleod,
    tail_plus,
    uniform_grid,
)
from tfpainleve.corrections import TAIL_EXPONENTS, TAIL_FIT_WINDOW, loglog_slope
from tfpainleve.groundstate import ground_state_ladder

EPS_LIST = (0.1, 0.05, 0.025)


def test_criterion_01_profile_solve_converges_and_matches_shooting_oracle():
    start = time.perf_counter()
    sol = solve_hastings_mcleod()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert sol.residual_max <= 1e-9
    assert np.all(np.diff(sol.nu0) > 0.0)
    # 4 nu'' = nu (nu^2 - y) and nu > 0: curvature changes sign exactly once
    curvature_sign = np.sign(sol.nu0**2 - sol.grid.nodes)
    flips = np.nonzero(np.diff(curvature_sign) != 0.0)[0]
    assert flips.size == 1
    nu0_at_zero = float(sol.interp_nu0(0.0))
    assert abs(nu0_at_zero - oracles.SHOOTING_NU0_AT_ZERO) <= 1e-6


def test_criterion_02_layer_potential_minimum_positive_and_grid_stable(sol):
    wmin = from_solution(sol).well_value
    assert wmin > 0.0
    fine = solve_hastings_mcleod(n_nodes=12001)
    wmin_fine = from_solution(fine).well_value
    assert abs(wmin_fine - wmin) <= 1e-6


def test_criterion_03_tail_coefficients_and_partial_sum_error(sol):
    np.testing.assert_array_equal(bn_coefficients(3), [1.0, 0.0, -4.0, 0.0])
    partial = tail_plus(40.0, bn_coefficients(4))
    # b_5 = 0, so the first omitted term in the partial sum is the b_6 one
    b6 = bn_coefficients(6)[6]
    omitted = abs(b6) * np.sqrt(40.0) * 80.0 ** (-9.0)
    assert abs(sol.nu0[-1] - partial) <= 10.0 * omitted


def test_criterion_04_correction_residuals_and_tail_exponents(sol, cset1, cset2, cset3):
    lo, up = TAIL_FIT_WINDOW
    y = sol.grid.nodes
    mask = (y >= lo) & (y <= up)
    for cset in (cset1, cset2, cset3):
        for n in (1, 2):
            v = cset.terms[n - 1]
            residual = -4.0 * second_difference(v, sol.grid) + sol.w0 * v - cset.forcings[n - 1]
            assert np.abs(residual[1:-1]).max() <= 1e-8, (cset.dimension, n)
            slope = loglog_slope(y[mask], v[mask])
            beta = TAIL_EXPONENTS[cset.dimension]
            assert abs(slope - (beta - 2.0 * n)) <= 0.5, (cset.dimension, n)


def test_criterion_05_tf_limit_bounds_d2(cset2):
    bulk_points = np.linspace(0.0, 0.8, 401)
    ratios = []
    sups = []
    for eps in EPS_LIST:
        gs = solve_ground_state(eps, cset2)
        r = gs.grid.nodes
        inner = r <= 1.0 - eps ** (1.0 / 3.0)
        tf = thomas_fermi(r[inner])
        diff = tf - gs.eta[inner]
        assert diff.min() >= -1e-12
        ratios.append(np.max(diff / (eps ** (1.0 / 3.0) * tf)))
        sups.append(np.max(np.abs(CubicSpline(r, gs.eta)(bulk_points) - thomas_fermi(bulk_points))))
    assert max(ratios) <= 10.0
    # the eps=0.1 pair is pre-asymptotic; the finest halving pair sets the order
    order = np.log(sups[-2] / sups[-1]) / np.log(2.0)
    assert abs(order - 2.0) <= 0.3


def test_criterion_06_composite_remainder_orders(cset1, cset3):
    start = time.perf_counter()
    # tfp study's remainder ladder: solved well past the composite's error
    table_d1 = remainder_study(ground_state_ladder(cset1, EPS_LIST, tol=1e-10, nodes_per_layer=80))
    assert abs(table_d1.fit_order - 7.0 / 3.0) <= 0.3
    table_d3 = remainder_study(ground_state_ladder(cset3, EPS_LIST, tol=1e-10, nodes_per_layer=80))
    assert table_d3.fit_order >= 5.0 / 3.0 - 0.3
    assert time.perf_counter() - start < 120.0


def test_criterion_07_eigenvalue_scaling_law(cset1, m0_report):
    table = scaling_study(ground_state_ladder(cset1, EPS_LIST), m0_report.eigenvalues, 1)
    mu1 = float(table.mu[0])
    pick = table.n == 1
    eps = table.eps[pick]
    dev_odd = np.abs(table.scaled_odd[pick] - mu1)
    dev_even = np.abs(table.scaled_even[pick] - mu1)
    assert np.all(np.diff(dev_odd) < 0.0)
    assert np.all(np.diff(dev_even) < 0.0)
    envelope = eps ** (2.0 / 3.0 - 0.1)
    assert np.max(dev_odd / envelope) <= 10.0
    assert np.max(dev_even / envelope) <= 10.0
    gaps = table.pair_gap[pick]
    assert gaps[-1] < 0.05
    # the tunneling splitting reaches the rounding floor below eps ~ 0.05
    assert np.all(np.diff(gaps) <= 1e-10)


def test_criterion_08_bohr_sommerfeld_closed_form_and_w0(sol, m0_report):
    profile = simplified()
    for n in range(1, 6):
        exact = (np.pi * (2 * n - 1)) ** (2.0 / 3.0)
        assert abs(bs_eigenvalue(profile, n) - exact) <= 1e-8
    w0_profile = from_solution(sol)
    rel = []
    for n in (2, 4, 8):
        mu = m0_report.eigenvalues[n - 1]
        rel.append(abs(bs_eigenvalue(w0_profile, n) - mu) / mu)
    assert rel[0] > rel[1] > rel[2]
    assert rel[2] < 0.05


def test_criterion_09_sturm_matches_dense_oracle(sol, rng):
    grid = uniform_grid(-20.0, 40.0, 200)
    h = grid.spacing
    w = from_solution(sol)(grid.nodes)[1:-1]
    off = np.full(w.size - 1, -4.0 / h**2)
    layer_op = TridiagonalOperator(off, 8.0 / h**2 + w, off)
    diag = 1.0 + rng.random(200)
    off_r = rng.random(199) - 0.5
    random_op = TridiagonalOperator(off_r, diag, off_r)
    for op in (layer_op, random_op):
        mine = eig_smallest(op, 10).eigenvalues
        np.testing.assert_allclose(mine, oracles.dense_smallest(op, 10), atol=1e-9)


def test_criterion_10_eigenfunction_decay_prefactors(sol, m0_report):
    certs = decay_check(m0_report, sol)
    assert len(certs) == 8
    bounds = np.array([c.c_bound for c in certs])
    derivs = np.array([c.c_deriv for c in certs])
    # whole-grid constants of the same matrix from extended-precision vectors,
    # where the grid ends carry no double-precision roundoff
    ref_bounds, ref_derivs = oracles.mp_decay_constants(assemble_M0(sol), sol.grid.nodes[1:-1], 8)
    np.testing.assert_allclose(bounds, ref_bounds, rtol=1e-6)
    np.testing.assert_allclose(derivs, ref_derivs, rtol=1e-6)
    # a-priori per-mode bound: ||u||_inf^2 <= ||u|| ||u'|| with the energy
    # identity, then decay rate >= 1 wherever W0 > mu_m + 4 (comparison)
    y = sol.grid.nodes[1:-1]
    h = y[1] - y[0]
    w0 = sol.w0[1:-1]
    w_low = from_solution(sol).well_value
    for cert, mu in zip(certs, m0_report.eigenvalues):
        reach = float(np.max(np.abs(y[w0 <= mu + 4.0])))
        prior = np.sqrt(h) * ((mu - w_low) / 4.0) ** 0.25 * np.exp(reach)
        assert cert.c_bound <= prior, (
            f"C_{cert.m} = {cert.c_bound:.4g} exceeds its a-priori bound {prior:.4g}; "
            f"measured C_m = {np.round(bounds, 4).tolist()}"
        )
