import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from surrogates import exact_well, harmonic, simplified
from tfpainleve import (
    ConvergenceError,
    action,
    bs_eigenvalue,
    from_function,
    from_solution,
    solve_hastings_mcleod,
)
from tfpainleve import semiclassics
from tfpainleve.semiclassics import _branch_positions


def test_simplified_rule_matches_closed_form():
    profile = simplified()
    for n in range(1, 6):
        predicted = (math.pi * (2 * n - 1)) ** (2.0 / 3.0)
        assert bs_eigenvalue(profile, n) == pytest.approx(predicted, abs=1e-8)


def test_harmonic_action_closed_form():
    profile = harmonic()
    # int sqrt(mu - y^2) dy over the allowed interval equals pi mu / 2
    for mu in (1.0, 5.0, 20.0):
        assert action(profile, mu) == pytest.approx(0.5 * math.pi * mu, abs=1e-9)


def test_harmonic_levels():
    profile = harmonic()
    for n, expected in ((1, 2.0), (2, 6.0), (3, 10.0)):
        assert bs_eigenvalue(profile, n) == pytest.approx(expected, abs=1e-8)


def test_action_increases_with_energy():
    profile = simplified()
    values = [action(profile, mu) for mu in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_turning_points_simplified():
    assert _branch_positions(simplified(), [3.0], -1)[0] == pytest.approx(-3.0, abs=1e-12)
    assert _branch_positions(simplified(), [3.0], 1)[0] == pytest.approx(1.5, abs=1e-12)


def test_action_validation():
    profile = simplified()
    with pytest.raises(ValueError, match="well bottom"):
        action(profile, 0.0)
    with pytest.raises(ValueError, match="certified range on the right"):
        action(simplified(y_left=-80.0), 70.0)  # beyond W(y_right) = 60
    with pytest.raises(ValueError, match="certified range on the left"):
        action(simplified(y_left=-10.0), 15.0)  # beyond W(y_left) = 10


def test_from_function_certifies_single_well():
    profile = from_function(lambda y: np.asarray(y) ** 2, -5.0, 5.0)
    assert profile.well_value == pytest.approx(0.0, abs=1e-12)
    assert profile.well_location == pytest.approx(0.0, abs=1e-6)


def test_from_function_rejections():
    with pytest.raises(ValueError, match="not single-well"):
        from_function(np.sin, -6.0, 6.0)
    with pytest.raises(ValueError, match="interior minimum"):
        from_function(lambda y: -np.asarray(y, dtype=float), 0.0, 1.0)
    with pytest.raises(ValueError, match="empty certification range"):
        from_function(np.cos, 1.0, 1.0)

    # an interior NaN would pass as the well bottom, and an infinite plateau as
    # a steep wall that silently shortens the action (30.14 against 10 pi at mu = 20)
    def nan_band(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y - 1.0) < 0.01, np.nan, y * y)

    def inf_walls(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) > 4.0, np.inf, y * y)

    with pytest.raises(ValueError, match=r"not finite on the certified range at y = 0\.99$"):
        from_function(nan_band, -5.0, 5.0)
    with pytest.raises(ValueError, match="not finite on the certified range at y = -10"):
        from_function(inf_walls, -10.0, 10.0)


def test_quantization_tracks_layer_operator(sol, m0_report):
    profile = from_solution(sol)
    rels = []
    for n in (2, 4, 8):
        mu_bs = bs_eigenvalue(profile, n)
        mu_ref = m0_report.eigenvalues[n - 1]
        rels.append(abs(mu_bs - mu_ref) / mu_ref)
    assert rels[0] > rels[1] > rels[2]
    assert rels[0] < 0.05
    assert rels[2] < 1e-3


def test_bs_eigenvalue_validation(sol):
    with pytest.raises(ValueError):
        bs_eigenvalue(simplified(), 0)
    # the certified range only supports actions up to W(y_right)^(3/2)
    with pytest.raises(ConvergenceError, match="bracket failure"):
        bs_eigenvalue(simplified(), 75)
    with pytest.raises(ValueError, match="level index must be a positive integer"):
        bs_eigenvalue(from_solution(sol), 1.5)


def test_bs_eigenvalue_action_budget(sol, monkeypatch):
    # deterministic guard on solving all levels together: one action call at
    # the top of the certified range, then one per secant round; a per-level
    # loop with span doubling and Illinois steps made 81 calls on this table
    profile = from_solution(sol)
    calls = []

    def counted(W, mu):
        calls.append(mu)
        return action(W, mu)

    monkeypatch.setattr(semiclassics, "action", counted)
    levels = np.arange(1, 9)
    together = bs_eigenvalue(profile, levels)
    assert len(calls) <= 10
    monkeypatch.undo()
    one_by_one = [bs_eigenvalue(profile, int(n)) for n in levels]
    assert all(isinstance(mu, float) for mu in one_by_one)
    np.testing.assert_allclose(together, one_by_one, rtol=1e-12, atol=0.0)


def test_bs_levels_fill_the_certified_range(sol):
    # levels 12-14 fit under W0(-20) = 20, the value at the left end of the layer
    # window, though doubling the bracket span from the well stepped past it
    profile = from_solution(sol)
    top = min(profile.ws[0], profile.ws[-1])
    levels = np.array([12, 13, 14])
    mu = bs_eigenvalue(profile, levels)
    assert np.all(mu < top)
    residual = action(profile, mu) - math.pi * (2 * levels - 1)
    assert np.max(np.abs(residual)) <= 1e-9
    with pytest.raises(ConvergenceError, match=r"bracket failure: level 15 "):
        bs_eigenvalue(profile, [1, 15])


@pytest.mark.parametrize("n_nodes", [2000, 6001, 120001])
def test_layer_max_level_is_the_last_level_under_the_window_top(n_nodes):
    # the action at the top W0(-20) = 20 is 89.4715 on every grid, between the
    # targets pi (2n - 1) of levels 14 and 15
    profile = from_solution(solve_hastings_mcleod(n_nodes))
    top = min(profile.ws[0], profile.ws[-1])
    assert top == pytest.approx(20.0, abs=1e-12)
    reach = action(profile, top)
    assert reach == pytest.approx(89.4715, abs=1e-4)
    cap = semiclassics.LAYER_MAX_LEVEL
    assert math.pi * (2 * cap - 1) < reach < math.pi * (2 * cap + 1)
    semiclassics.check_layer_levels([1, cap])
    with pytest.raises(ValueError, match=f"at most {cap}, .* got {cap + 1}"):
        semiclassics.check_layer_levels([1, cap + 1])


def test_bs_eigenvalue_matches_bisection_to_rounding(sol):
    # bisect the action until no midpoint lies strictly inside any bracket:
    # mu_bs must agree with that to rounding, not to the first 11 digits
    profile = from_solution(sol)
    levels = np.array([1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14])
    targets = math.pi * (2 * levels - 1)
    lo = np.full(levels.shape, profile.well_value)
    hi = np.full(levels.shape, min(profile.ws[0], profile.ws[-1]))
    while np.any(((mid := 0.5 * (lo + hi)) > lo) & (mid < hi)):
        below = action(profile, mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    np.testing.assert_allclose(bs_eigenvalue(profile, levels), lo, rtol=1e-14, atol=0.0)


def test_phase_rule_is_gauss_legendre():
    # the 64-node rule integrates polynomials of degree < 128 in phi exactly
    phi, weights = semiclassics._phase_rule()
    order = np.argsort(phi)
    xg, wg = np.polynomial.legendre.leggauss(phi.size)
    np.testing.assert_allclose(phi[order], 0.25 * math.pi * (xg + 1.0), rtol=0.0, atol=1e-15)
    # leggauss's own weights are off by up to 1.3e-12 relative (against mpmath roots)
    np.testing.assert_allclose(weights[order], 0.25 * math.pi * wg, rtol=2e-12)
    for k in range(12):
        exact = (0.5 * math.pi) ** (k + 1) / (k + 1)
        assert float(weights @ phi**k) == pytest.approx(exact, rel=1e-14)


def test_layer_action_matches_quadrature_oracle(sol):
    profile = from_solution(sol)
    for mu in (2.45, 4.5, 7.8, 13.0, 20.0):
        assert action(profile, mu) == pytest.approx(oracles.quad_action(profile, mu), rel=2e-12)


def _counting(profile, sizes):
    """``profile`` with its scan, logging the size of every evaluator call in ``sizes``."""

    def counted(y):
        sizes.append(np.size(y))
        return profile.evaluator(y)

    return dataclasses.replace(profile, evaluator=counted)


def test_action_evaluation_budget(sol):
    # deterministic guard against a slide back to bisection (about 255 calls):
    # four secant rounds per branch, and no W' call
    calls = []
    counting = _counting(from_solution(sol), calls)
    for mu in (2.45, 7.8, 20.0):
        calls.clear()
        action(counting, mu)
        assert len(calls) <= 8


def test_bs_table_makes_no_one_point_evaluator_call(sol):
    # W is sampled once, by from_function; every later call serves a whole branch
    sizes = []
    counting = _counting(from_solution(sol), sizes)
    for n in range(1, 9):
        bs_eigenvalue(counting, n)
    assert sizes and min(sizes) > 1


def test_bs_table_builds_each_bracket_table_once(sol, monkeypatch):
    # the tables depend only on the profile's scan and well, not on mu
    built = []
    build = semiclassics._bracket_table

    def counted(W, side):
        built.append(side)
        return build(W, side)

    monkeypatch.setattr(semiclassics, "_bracket_table", counted)
    profile = from_solution(sol)
    for n in range(1, 9):
        bs_eigenvalue(profile, n)
    assert sorted(built) == [-1, 1]


def test_branch_positions_exact_roots():
    targets = np.linspace(0.01, 30.0, 41)
    right = _branch_positions(harmonic(), targets, 1)
    left = _branch_positions(harmonic(), targets, -1)
    np.testing.assert_allclose(right, np.sqrt(targets), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(left, -np.sqrt(targets), rtol=0.0, atol=1e-13)
    right = _branch_positions(simplified(), targets, 1)
    left = _branch_positions(simplified(), targets, -1)
    np.testing.assert_allclose(right, 0.5 * targets, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(left, -targets, rtol=0.0, atol=1e-13)


def test_branch_positions_quartic_roots_and_names_open_branch():
    # the quartic's flat bottom is where secant steps converge slowest
    profile = exact_well(lambda y: np.asarray(y) ** 4, -1.0, 1.0)
    left = _branch_positions(profile, np.array([0.5, 0.0625]), -1)
    np.testing.assert_allclose(left, [-(0.5**0.25), -0.5], rtol=1e-15)
    # a root at 1e-75 needs more shrinking of its 5e-4 wide bracket than the round budget
    with pytest.raises(ConvergenceError, match="right branch"):
        _branch_positions(profile, np.array([1e-300, 0.5]), 1)


# closed-form actions: pi mu / 2 for y^2; (2/3) mu^(3/2) from the left branch
# of the simplified well plus (1/3) mu^(3/2) from the right
_CLOSED_FORMS = {
    "harmonic": (harmonic(), lambda mu: 0.5 * math.pi * mu),
    "simplified": (simplified(), lambda mu: mu**1.5),
}


@st.composite
def _profile_and_mu(draw):
    name = draw(st.sampled_from(sorted(_CLOSED_FORMS)))
    profile = _CLOSED_FORMS[name][0]
    top = profile.ws[-1]
    mu = draw(st.floats(profile.well_value + 1e-3, top - 1e-3))
    return name, mu


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_profile_and_mu())
def test_turning_points_and_action_property(case):
    name, mu = case
    profile, closed_form = _CLOSED_FORMS[name]
    for side in (-1, 1):
        y = _branch_positions(profile, [mu], side)[0]
        assert abs(float(profile(y)) - mu) <= 8.0 * np.spacing(mu)
    assert action(profile, mu) == pytest.approx(closed_form(mu), rel=1e-10)
