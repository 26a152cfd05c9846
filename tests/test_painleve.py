import numpy as np
import pytest

import oracles
from tfpainleve import (
    ConvergenceError,
    bn_coefficients,
    from_solution,
    second_difference,
    solve_hastings_mcleod,
    tail_minus,
    tail_plus,
)
from tfpainleve import painleve
from tfpainleve.grids import Grid1D, TridiagonalOperator
from tfpainleve.painleve import assemble_M0, damped_newton


def test_bn_recursion_first_terms():
    b = bn_coefficients(3)
    np.testing.assert_array_equal(b, [1.0, 0.0, -4.0, 0.0])
    assert not b.flags.writeable


def test_bn_recursion_matches_series_substitution_oracle():
    expected = oracles.tail_coefficients(8)
    # frozen oracle output, guarding the oracle itself against drift
    assert expected == (1, 0, -4, 0, -584, 0, -341024, 0, -445192864)
    np.testing.assert_array_equal(bn_coefficients(8), expected)


def test_tail_plus_satisfies_equation():
    # the truncated series near y=35 solves the profile equation down to the
    # stencil's h^2 error, well inside the first-omitted-term scale
    y = np.linspace(34.0, 36.0, 161)
    g = Grid1D(y)
    nu = tail_plus(y, bn_coefficients(6))
    res = 4.0 * second_difference(nu, g) + y * nu - nu**3
    first_omitted = 341024.0 * np.sqrt(35.0) * (2.0 * 35.0) ** -9
    assert np.max(np.abs(res[2:-2])) <= 100.0 * first_omitted


def test_tail_plus_warns_when_series_grows():
    with pytest.warns(UserWarning, match="not decreasing"):
        tail_plus(np.array([0.3]), bn_coefficients(6))


def test_tail_minus_airy_consistent():
    # exponent and algebraic prefactor of the left tail via a log-ratio
    y = np.array([-30.0, -20.0])
    vals = tail_minus(y)
    ratio = np.log(vals[1] / vals[0])
    predicted = -((-y[1]) ** 1.5 - (-y[0]) ** 1.5) / 3.0 - 0.25 * np.log(y[1] / y[0])
    assert ratio == pytest.approx(predicted, rel=1e-12)
    assert np.all(vals > 0.0)


def test_solver_converges_with_small_residual(sol, profile_floor):
    # no tolerance stops the solve: it ends at the kernel's floor exit
    assert sol.residual_max <= profile_floor(sol)
    assert sol.newton_iterations <= 12


def test_nu0_strictly_increasing(sol):
    assert np.all(np.diff(sol.nu0) > 0.0)


def test_nu0_single_inflection(sol):
    # curvature from the profile equation: nu0'' = (nu0^3 - y nu0)/4
    d2 = (sol.nu0**3 - sol.grid.nodes * sol.nu0) / 4.0
    signs = np.sign(d2)
    signs = signs[signs != 0.0]
    assert np.count_nonzero(np.diff(signs)) == 1


def test_connection_value_matches_shooting_oracle(sol):
    shot = oracles.shoot_nu0_at_zero()
    assert abs(shot - oracles.SHOOTING_NU0_AT_ZERO) <= oracles.SHOOTING_TOL
    assert abs(sol.interp_nu0(0.0) - shot) <= 1e-6


def test_slope_at_origin_frozen(sol):
    slope = np.interp(0.0, sol.grid.nodes, sol.dnu0)
    assert slope == pytest.approx(0.3315440, abs=2e-5)


def test_right_tail_envelope(sol):
    y = sol.grid.nodes
    mask = (y >= 30.0) & (y <= sol.grid.b)
    series = tail_plus(y[mask], bn_coefficients(4))
    envelope = 341024.0 * np.sqrt(y[mask]) * (2.0 * y[mask]) ** -9
    assert np.all(np.abs(sol.nu0[mask] - series) <= 10.0 * envelope)


def test_left_tail_band(sol):
    y = sol.grid.nodes
    mask = (y >= sol.grid.a) & (y <= -8.0)
    ratio = sol.nu0[mask] / tail_minus(y[mask])
    assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0)
    # tighter regression band from the recorded baseline run
    assert ratio.min() >= 0.991
    assert ratio.max() <= 1.0 + 1e-9


def test_standard_form_change_of_variables(sol, profile_floor):
    # nu0(y) = 2^(5/6) q(-2^(-2/3) y) with q'' = 2 q^3 + s q; the standard-form
    # residual is 2^(-3/2) times the Newton residual, plus rounding
    s = (-(2.0 ** (-2.0 / 3.0)) * sol.grid.nodes)[::-1]
    q = (2.0 ** (-5.0 / 6.0) * sol.nu0)[::-1]
    sgrid = Grid1D(s)
    res = second_difference(q, sgrid) - 2.0 * q**3 - s * q
    assert np.max(np.abs(res[1:-1])) <= profile_floor(sol)


def test_w0_positive_and_frozen_minimum(sol):
    assert np.all(sol.w0 > 0.0)
    W = from_solution(sol)
    location, value = W.well_location, W.well_value
    assert value == pytest.approx(1.2333601638539657, abs=1e-9)
    assert location == pytest.approx(-0.33728789676378551, abs=1e-6)
    assert abs(location) < 2.2  # the minimizer is O(1), slightly left of 0


def test_w0_far_field(sol):
    W = from_solution(sol)
    assert (W.ys[0], W.ys[-1]) == (sol.grid.a, sol.grid.b)
    assert float(W(-15.0)) == pytest.approx(15.0, rel=1e-5)
    assert float(W(sol.grid.b)) == pytest.approx(80.0, rel=0.01)


def test_w0_min_stable_under_halving(sol):
    fine = solve_hastings_mcleod(n_nodes=12001)
    assert abs(from_solution(fine).well_value - from_solution(sol).well_value) <= 1e-6


def test_connection_value_refines_at_second_order(sol):
    shot = oracles.shoot_nu0_at_zero()
    errs = []
    for n in (3001, 6001, 12001):
        s = solve_hastings_mcleod(n_nodes=n)
        errs.append(abs(s.interp_nu0(0.0) - shot))
    order = 0.5 * np.log(errs[0] / errs[2]) / np.log(2.0)
    assert order == pytest.approx(2.0, abs=0.2)


def test_interp_rejects_outside_domain(sol):
    with pytest.raises(ValueError):
        sol.interp_nu0(sol.grid.b + 1.0)
    with pytest.raises(ValueError):
        sol.interp_nu0(sol.grid.a - 1e-9)


def test_coarsest_admissible_grid_has_spacing_below_0_0301():
    # the fixed window and the 2000-node floor bound the spacing: h = 60 / 1999
    coarse = solve_hastings_mcleod(n_nodes=2000)
    assert (coarse.grid.a, coarse.grid.b) == painleve.LAYER_WINDOW
    assert coarse.grid.spacing <= 0.0301


@pytest.mark.parametrize(("tol", "fragment"), [(0.0, "positive"), (-1.0, "positive"),
                                               (np.nan, "finite")])
def test_solve_rejects_a_tolerance_that_is_not_positive_and_finite(tol, fragment):
    # the Newton kernel's own rule: without it tol = 0 and tol < 0 ended as converged
    # at the rounding floor
    residual, jacobian = _chain(np.linspace(-3.0, 5.0, 9))
    with pytest.raises(ValueError, match=f"tol must be {fragment}, got {tol}"):
        damped_newton(residual, jacobian, np.zeros(9), tol, 50)


def test_csv_serialization(sol, tmp_path):
    path = tmp_path / "profile.csv"
    sol.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "y,nu0,dnu0,W0"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (sol.grid.n, 4)
    np.testing.assert_allclose(data[:, 1], sol.nu0, atol=1e-15)


def _chain(b):
    # x_{i-1} - 4 x_i + x_{i+1} - x_i^3 = b_i with x_0 = x_{n+1} = 0
    def residual(x):
        r = -4.0 * x - x**3 - b
        r[1:] += x[:-1]
        r[:-1] += x[1:]
        return r

    def jacobian(x):
        off = np.ones(x.size - 1)
        return TridiagonalOperator(off, -4.0 - 3.0 * x**2, off)

    return residual, jacobian


def test_damped_newton_converges_on_tridiagonal_chain():
    b = np.linspace(-3.0, 5.0, 9)
    residual, jacobian = _chain(b)
    x, rnorm, iterations = damped_newton(residual, jacobian, np.zeros(9), 1e-12, 50)
    assert rnorm <= 1e-12 and 1 <= iterations <= 20
    assert np.abs(residual(x)).max() == rnorm


def _jacobian_2x(scale):
    return lambda x: TridiagonalOperator(np.zeros(x.size - 1), 2.0 * scale * x, np.zeros(x.size - 1))


def test_damped_newton_stall_at_floor_returns():
    # 1e15 (x^2 - 2) has no floating-point root: |r| stalls near 0.4 at x ~ sqrt(2),
    # below the derived floor 2 eps_mach ||J|| ||x|| ~ 1.8
    calls = []

    def counted(x):
        calls.append(1)
        return 1e15 * (x * x - 2.0)

    x, rnorm, iterations = damped_newton(counted, _jacobian_2x(1e15), np.ones(3), 1e-20, 50)
    assert rnorm <= 1.0
    np.testing.assert_allclose(x, np.sqrt(2.0), rtol=1e-15)
    # the start, one per accepted full step, and one rejected step at the
    # floor: the stall costs one evaluation, not 40 halvings
    assert len(calls) == iterations + 2


def test_damped_newton_stall_above_floor_raises():
    # x^2 - 2 evaluated in float32 stalls near 1e-7, far above the float64
    # floor 2 eps_mach ||J|| ||x|| ~ 1.8e-15 that the kernel derives
    def residual(x):
        return (x.astype(np.float32) ** 2 - np.float32(2.0)).astype(float)

    with pytest.raises(ConvergenceError, match="^Newton damping exhausted at residual 1.19"):
        damped_newton(residual, _jacobian_2x(1.0), np.ones(3), 1e-20, 50)
    with pytest.raises(ConvergenceError, match="trial damping exhausted"):
        damped_newton(residual, _jacobian_2x(1.0), np.ones(3), 1e-20, 50, what="trial")


def test_profile_floor_is_the_stencil_rounding_level(sol, profile_floor):
    # 2 eps_mach ||M0||_inf ||nu||_inf ~ 32 eps_mach max|nu| / h^2, the rounding
    # level of the second difference at the profile
    stencil = 32.0 * np.finfo(float).eps * np.abs(sol.nu0[1:-1]).max() / sol.grid.spacing**2
    assert profile_floor(sol) == pytest.approx(stencil, rel=1e-4)


def test_damped_newton_iteration_budget_raises():
    residual, jacobian = _chain(np.linspace(-3.0, 5.0, 9))
    with pytest.raises(ConvergenceError, match="stalled after 1 iterations"):
        damped_newton(residual, jacobian, np.zeros(9), 1e-12, 1)


def test_painleve_newton_jacobian_is_m0_at_the_profile(sol, monkeypatch):
    seen = {}

    def spy(residual, jacobian, x0, *args, **kwargs):
        x, rnorm, iterations = damped_newton(residual, jacobian, x0, *args, **kwargs)
        seen["jacobian"] = jacobian(x)
        return x, rnorm, iterations

    monkeypatch.setattr(painleve, "damped_newton", spy)
    again = painleve.solve_hastings_mcleod()
    np.testing.assert_array_equal(again.nu0, sol.nu0)
    jac, m0 = seen["jacobian"], assemble_M0(sol)
    np.testing.assert_array_equal(m0.sub, m0.sup)
    for band in ("sub", "diag", "sup"):
        np.testing.assert_array_equal(getattr(jac, band), getattr(m0, band))
