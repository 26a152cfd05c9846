import math

import numpy as np
import pytest

from tfpainleve import (
    ConvergenceError,
    action,
    bs_eigenvalue,
    from_function,
    from_solution,
    harmonic,
    simplified,
    turning_points,
    w0_min,
)


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
    assert y_minus == pytest.approx(-3.0, abs=1e-9)
    assert y_plus == pytest.approx(1.5, abs=1e-9)


def test_turning_points_validation():
    profile = simplified()
    with pytest.raises(ValueError, match="well bottom"):
        turning_points(profile, 0.0)
    with pytest.raises(ValueError, match="certified range"):
        turning_points(profile, 70.0)  # beyond W(y_right) = 60


def test_from_function_certifies_single_well():
    profile = from_function(lambda y: np.asarray(y) ** 2, -5.0, 5.0)
    assert profile.well_value == pytest.approx(0.0, abs=1e-12)
    assert profile.well_location == pytest.approx(0.0, abs=1e-6)
    # difference fallback for the slope when no derivative is supplied
    assert profile.dW(2.0) == pytest.approx(4.0, abs=1e-5)


def test_from_function_rejections():
    with pytest.raises(ValueError, match="not single-well"):
        from_function(np.sin, -6.0, 6.0)
    with pytest.raises(ValueError, match="interior minimum"):
        from_function(lambda y: -np.asarray(y, dtype=float), 0.0, 1.0)
    with pytest.raises(ValueError, match="empty certification range"):
        from_function(np.cos, 1.0, 1.0)


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

