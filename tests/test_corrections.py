from dataclasses import fields

import numpy as np
import pytest

import oracles
from tfpainleve import (
    CorrectionSet,
    assemble_F1,
    assemble_Fn,
    build_corrections,
    composite_nu,
    first_difference,
    nu0_second_derivative,
    second_difference,
    solve_hastings_mcleod,
    tail_fit_window,
)
from tfpainleve.corrections import TAIL_EXPONENTS, interaction_triples, loglog_slope


def interior_residual(sol, v, rhs):
    r = -4.0 * second_difference(v, sol.grid) + sol.w0 * v - rhs
    return np.abs(r[1:-1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interaction_triples_match_enumeration_oracle(n):
    assert sorted(interaction_triples(n)) == sorted(oracles.brute_triples(n))


def test_forcing_assembly_matches_written_formula(sol, cset2):
    # F2 = -3 nu0 nu1^2 - 2 d nu1' - 4 y nu1''
    nu1 = cset2.terms[0]
    expected = (
        -3.0 * sol.nu0 * nu1**2
        - 2.0 * 2 * first_difference(nu1, sol.grid)
        - 4.0 * sol.grid.nodes * second_difference(nu1, sol.grid)
    )
    np.testing.assert_allclose(cset2.forcings[1], expected, atol=1e-12)


def test_first_forcing_rejects_bad_dimension(sol):
    with pytest.raises(ValueError):
        assemble_F1(sol, 4)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_corrections_solve_their_linear_equations(sol, cset1, cset2, cset3, d):
    cset = {1: cset1, 2: cset2, 3: cset3}[d]
    for n in (1, 2):
        res = interior_residual(sol, cset.terms[n - 1], cset.forcings[n - 1])
        assert res.max() <= 2e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_corrections_meet_their_boundary_values(sol, cset1, cset2, cset3, d):
    # nu_1 ends at its far-field value (1 - d) / (W0 sqrt(y)), 0 in d = 1;
    # every other end is 0 up to the solver's pivoting roundoff
    cset = {1: cset1, 2: cset2, 3: cset3}[d]
    nu1, nu2 = cset.terms
    assert abs(nu1[0]) <= 1e-15
    y_max = sol.grid.b
    far = (1 - d) / (sol.w0[-1] * np.sqrt(y_max))
    assert nu1[-1] == pytest.approx(far, rel=1e-15, abs=0.0)
    assert abs(nu2[-1]) <= 1e-15
    np.testing.assert_array_equal(cset.forcings[0], assemble_F1(sol, d))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_correction_tail_slopes(sol, cset1, cset2, cset3, d, n):
    cset = {1: cset1, 2: cset2, 3: cset3}[d]
    y = sol.grid.nodes
    lo, up = tail_fit_window(sol)
    mask = (y >= lo) & (y <= up)
    slope = loglog_slope(y[mask], cset.terms[n - 1][mask])
    assert abs(slope - (TAIL_EXPONENTS[d] - 2.0 * n)) <= 0.5


def test_first_forcing_cancellation_in_d1(sol):
    # -2 nu0' and -4 y nu0'' cancel at leading order, leaving a y^(-7/2) tail
    F1 = assemble_F1(sol, 1)
    y = sol.grid.nodes
    lo, up = tail_fit_window(sol)
    mask = (y >= lo) & (y <= up)
    assert loglog_slope(y[mask], F1[mask]) == pytest.approx(-3.5, abs=0.3)


def test_nu0_curvature_identity(sol):
    # the converged samples satisfy the discrete profile equation, so the
    # equation-based curvature matches the stencil to residual/4
    d2 = second_difference(sol.nu0, sol.grid)
    assert np.max(np.abs(nu0_second_derivative(sol) - d2)[2:-2]) <= 1e-9


def test_split_metadata(cset1, cset2):
    assert TAIL_EXPONENTS[cset1.dimension] == -2.5
    assert TAIL_EXPONENTS[cset2.dimension] == 0.5


def test_correction_set_is_profile_dimension_terms_and_forcings(sol, cset3):
    assert [f.name for f in fields(CorrectionSet)] == ["profile", "dimension", "terms", "forcings"]
    assert cset3.profile is sol and cset3.dimension == 3
    assert cset3.order == len(cset3.terms) == len(cset3.forcings) == 2


def test_build_corrections_validation(sol):
    with pytest.raises(ValueError):
        build_corrections(sol, 4)
    with pytest.raises(ValueError):
        build_corrections(sol, 1, order=0)
    with pytest.raises(ValueError):
        build_corrections(sol, 1, order=4)


def test_assemble_Fn_validation(sol, cset1):
    with pytest.raises(ValueError):
        assemble_Fn(sol, [], 1, 1)
    with pytest.raises(ValueError):
        assemble_Fn(sol, cset1.terms[:1], 3, 1)


def test_composite_nu_matches_manual_sum(sol, cset1):
    y = sol.grid.nodes[::50]
    eps = 0.1
    expected = sol.nu0[::50].copy()
    for n in (1, 2):
        expected += eps ** (2.0 * n / 3.0) * cset1.terms[n - 1][::50]
    np.testing.assert_allclose(composite_nu(cset1, eps, y), expected, atol=1e-13)


def test_composite_nu_uses_the_profile_its_set_was_built_on():
    # on another grid, the expansion is that profile's nu0 plus its own corrections
    coarse = solve_hastings_mcleod(n_nodes=3001)
    cset = build_corrections(coarse, 1, order=2)
    assert cset.profile is coarse
    eps = 0.1
    y = coarse.grid.nodes[::25]
    expected = coarse.nu0[::25] + sum(
        eps ** (2.0 * n / 3.0) * t[::25] for n, t in enumerate(cset.terms, start=1)
    )
    np.testing.assert_allclose(composite_nu(cset, eps, y), expected, atol=1e-13)


def test_composite_nu_validation(sol, cset1):
    with pytest.raises(ValueError):
        composite_nu(cset1, 0.0, 0.0)
    with pytest.raises(ValueError):
        composite_nu(cset1, 0.1, sol.grid.b + 1.0)


def test_corrections_to_csv(cset2, tmp_path):
    path = tmp_path / "corrections.csv"
    cset2.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "y,nu1,nu2,F1,F2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (cset2.profile.grid.n, 5)
    np.testing.assert_allclose(data[:, 1], cset2.terms[0], atol=1e-15)
