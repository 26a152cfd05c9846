import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from surrogates import harmonic, simplified
from tfpainleve import (
    ConvergenceError,
    action,
    bs_eigenvalue,
    from_function,
    from_solution,
    turning_points,
    w0_min,
)
from tfpainleve.semiclassics import PotentialProfile, _branch_positions


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
    y_minus, y_plus = turning_points(simplified(), 3.0)
    assert y_minus == pytest.approx(-3.0, abs=1e-12)
    assert y_plus == pytest.approx(1.5, abs=1e-12)


def test_turning_points_validation():
    profile = simplified()
    with pytest.raises(ValueError, match="well bottom"):
        turning_points(profile, 0.0)
    with pytest.raises(ValueError, match="certified range"):
        turning_points(profile, 70.0)  # beyond W(y_right) = 60


def test_from_function_certifies_single_well():
    profile = from_function(lambda y: np.asarray(y) ** 2, -5.0, 5.0, lambda y: 2.0 * np.asarray(y))
    assert profile.well_value == pytest.approx(0.0, abs=1e-12)
    assert profile.well_location == pytest.approx(0.0, abs=1e-6)


def test_from_function_rejections():
    with pytest.raises(ValueError, match="not single-well"):
        from_function(np.sin, -6.0, 6.0, np.cos)
    with pytest.raises(ValueError, match="interior minimum"):
        from_function(lambda y: -np.asarray(y, dtype=float), 0.0, 1.0, lambda y: -1.0)
    with pytest.raises(ValueError, match="empty certification range"):
        from_function(np.cos, 1.0, 1.0, lambda y: -np.sin(y))


def test_layer_potential_profile_matches_w0_minimum(sol):
    profile = from_solution(sol)
    location, value = w0_min(sol)
    assert profile.well_value == pytest.approx(value, abs=1e-6)
    assert profile.well_location == pytest.approx(location, abs=1e-3)
    assert profile.derivative is not None


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


def test_bs_eigenvalue_validation():
    with pytest.raises(ValueError):
        bs_eigenvalue(simplified(), 0)
    # the certified range only supports actions up to W(y_right)^(3/2)
    with pytest.raises(ConvergenceError, match="bracket failure"):
        bs_eigenvalue(simplified(), 75)



def test_layer_action_matches_quadrature_oracle(sol):
    profile = from_solution(sol)
    for mu in (2.45, 4.5, 7.8, 13.0, 20.0):
        assert action(profile, mu) == pytest.approx(oracles.quad_action(profile, mu), rel=2e-12)


def test_action_evaluation_budget(sol):
    # deterministic guard against a slide back to bisection (about 255 calls)
    profile = from_solution(sol)
    calls = []

    def counted(f):
        def g(y):
            calls.append(1)
            return f(y)

        return g

    counting = dataclasses.replace(
        profile, evaluator=counted(profile.evaluator), derivative=counted(profile.derivative)
    )
    for mu in (2.45, 7.8, 20.0):
        calls.clear()
        action(counting, mu)
        assert len(calls) <= 48


def test_branch_positions_exact_roots():
    targets = np.linspace(0.01, 30.0, 41)
    right = _branch_positions(harmonic(), targets, 0.0, 50.0)
    left = _branch_positions(harmonic(), targets, 0.0, -50.0)
    np.testing.assert_allclose(right, np.sqrt(targets), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(left, -np.sqrt(targets), rtol=0.0, atol=1e-13)
    right = _branch_positions(simplified(), targets, 0.0, 30.0)
    left = _branch_positions(simplified(), targets, 0.0, -60.0)
    np.testing.assert_allclose(right, 0.5 * targets, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(left, -targets, rtol=0.0, atol=1e-13)


def test_branch_positions_bisects_without_slope_and_names_open_branch():
    # a zero slope gives no Newton step, so every round falls back to the midpoint
    profile = PotentialProfile(
        lambda y: np.asarray(y) ** 4, lambda y: 0.0 * np.asarray(y), 0.0, 0.0, -1.0, 1.0
    )
    left = _branch_positions(profile, np.array([0.5, 0.0625]), 0.0, -1.0)
    np.testing.assert_allclose(left, [-(0.5**0.25), -0.5], rtol=1e-15)
    # a root at 1e-12 needs more halvings of its scan bracket than the round budget
    with pytest.raises(ConvergenceError, match="right branch"):
        _branch_positions(profile, np.array([1e-48, 0.5]), 0.0, 1.0)


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
    top = float(profile(profile.y_right))
    mu = draw(st.floats(profile.well_value + 1e-3, top - 1e-3))
    return name, mu


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_profile_and_mu())
def test_turning_points_and_action_property(case):
    name, mu = case
    profile, closed_form = _CLOSED_FORMS[name]
    for y in turning_points(profile, mu):
        assert abs(float(profile(y)) - mu) <= 8.0 * np.spacing(mu)
    assert action(profile, mu) == pytest.approx(closed_form(mu), rel=1e-10)
