import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import lapack

import oracles
from tfpainleve import (
    CorrectionSet,
    assemble_Fn,
    build_corrections,
    composite_nu,
    first_difference,
    second_difference,
    solve_hastings_mcleod,
    tail_minus,
)
from tfpainleve import painleve
from tfpainleve.corrections import (TAIL_EXPONENTS, TAIL_FIT_WINDOW, interaction_triples,
                                    loglog_slope)


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
        assemble_Fn(sol, [], 1, 4)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_first_forcing_is_the_order_one_case_of_assemble_Fn(sol, d):
    # F1 = -2 d nu0' - 4 y nu0'', with nu0'' = (nu0^3 - y nu0) / 4 from the profile equation
    y = sol.grid.nodes
    expected = -2.0 * d * sol.dnu0 - 4.0 * y * (0.25 * (sol.nu0**3 - y * sol.nu0))
    np.testing.assert_array_equal(assemble_Fn(sol, [], 1, d), expected)


def test_ladder_assembles_m0_once(sol, monkeypatch):
    calls = []
    real = painleve.layer_operator

    def spy(h, w):
        calls.append(h)
        return real(h, w)

    monkeypatch.setattr(painleve, "layer_operator", spy)
    cset = build_corrections(sol, 3, order=3)
    assert cset.order == 3 and calls == [sol.grid.spacing]


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
    np.testing.assert_array_equal(cset.forcings[0], assemble_Fn(sol, [], 1, d))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_correction_tail_slopes(sol, cset1, cset2, cset3, d, n):
    cset = {1: cset1, 2: cset2, 3: cset3}[d]
    y = sol.grid.nodes
    lo, up = TAIL_FIT_WINDOW
    mask = (y >= lo) & (y <= up)
    slope = loglog_slope(y[mask], cset.terms[n - 1][mask])
    assert abs(slope - (TAIL_EXPONENTS[d] - 2.0 * n)) <= 0.5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_correction_is_resolvable_on_the_tail_fit_window(sol, d):
    # the slope fit has no noise floor: each fitted tail must stand well above rounding
    y = sol.grid.nodes
    lo, up = TAIL_FIT_WINDOW
    mask = (y >= lo) & (y <= up)
    for nu in build_corrections(sol, d, order=3).terms:
        assert np.max(np.abs(nu[mask])) > 1e-9


def test_a_wrong_tail_exponent_fails_the_slope_check(sol, monkeypatch):
    monkeypatch.setitem(TAIL_EXPONENTS, 1, TAIL_EXPONENTS[1] + 2.0)
    with pytest.raises(ValueError, match=r"nu_1 \(d=1\): right-tail slope"):
        build_corrections(sol, 1, order=1)


def test_first_forcing_cancellation_in_d1(sol):
    # -2 nu0' and -4 y nu0'' cancel at leading order, leaving a y^(-7/2) tail
    F1 = assemble_Fn(sol, [], 1, 1)
    y = sol.grid.nodes
    lo, up = TAIL_FIT_WINDOW
    mask = (y >= lo) & (y <= up)
    assert loglog_slope(y[mask], F1[mask]) == pytest.approx(-3.5, abs=0.3)


def test_nu0_curvature_identity(sol):
    # the converged samples satisfy the discrete profile equation, so the
    # equation-based curvature in F1 matches the stencil to residual/4; with
    # d = 1 the slope term is -2 nu0', so F1 + 2 nu0' = -4 y nu0''
    y = sol.grid.nodes[2:-2]
    curvature_term = (assemble_Fn(sol, [], 1, 1) + 2.0 * sol.dnu0)[2:-2]
    d2 = second_difference(sol.nu0, sol.grid)[2:-2]
    assert np.all(np.abs(curvature_term + 4.0 * y * d2) <= 4.0 * np.abs(y) * 1e-9)


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
        assemble_Fn(sol, [], 0, 1)
    with pytest.raises(ValueError):
        assemble_Fn(sol, [], 2, 1)
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


def test_composite_nu_scalar_in_float_out(sol, cset1):
    y = sol.grid.nodes[[100, 2500, 4000]]
    values = composite_nu(cset1, 0.1, y)
    for yi, vi in zip(y, values):
        got = composite_nu(cset1, 0.1, float(yi))
        assert type(got) is float and got == vi


@pytest.fixture(scope="module")
def cset_fine3():
    return build_corrections(solve_hastings_mcleod(n_nodes=20001), 3, order=3)


def _horner_table_spline(grid, v, y):
    """Not-a-knot spline of v at y through a stored per-interval (d, c, b, a) Horner table."""
    h = grid.spacing
    diag = np.full(v.size - 2, 4.0)
    diag[0] = diag[-1] = 6.0
    sub = np.ones(v.size - 3)
    sup = sub.copy()
    sup[0] = sub[-1] = 0.0
    rhs = 6.0 * (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
    _, _, _, m, info = lapack.dgtsv(sub, diag, sup, rhs)
    assert info == 0
    m = np.concatenate(([2.0 * m[0] - m[1]], m, [2.0 * m[-1] - m[-2]]))
    d = (m[1:] - m[:-1]) / (6.0 * h)
    c = 0.5 * m[:-1]
    b = np.diff(v) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    table = np.stack([d, c, b, v[:-1]], axis=1)
    k = ((y - grid.a) * (1.0 / h)).astype(np.intp)
    t = y - grid.nodes[:-1].take(k, mode="clip")
    d, c, b, a = table.take(k, axis=0, mode="clip").T
    return ((d * t + c) * t + b) * t + a


def test_composite_nu_equals_the_horner_table_sum_exactly(cset_fine3):
    grid = cset_fine3.profile.grid
    rng = np.random.default_rng(3)
    y = np.concatenate((rng.uniform(grid.a, grid.b, 2000), grid.nodes[::7], [grid.a, grid.b]))
    eps = 0.05
    expected = _horner_table_spline(grid, cset_fine3.profile.nu0, y)
    for n, term in enumerate(cset_fine3.terms, start=1):
        expected = expected + eps ** (2.0 * n / 3.0) * _horner_table_spline(grid, term, y)
    np.testing.assert_array_equal(composite_nu(cset_fine3, eps, y), expected)


def test_composite_spline_keeps_one_float_per_node_and_order(cset_fine3):
    # a fresh set over the same arrays, so that its first composite builds the spline
    cset = CorrectionSet(profile=cset_fine3.profile, dimension=3, terms=cset_fine3.terms,
                         forcings=cset_fine3.forcings)
    y = np.linspace(0.0, 1.0, 5)
    tracemalloc.start()
    try:
        composite_nu(cset, 0.1, y)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_node = 8.0 * cset.profile.grid.n
    assert retained / per_node <= cset.order + 1 + 0.1
    assert peak / per_node <= cset.order + 1 + 6


def test_composite_nu_validation(sol, cset1):
    with pytest.raises(ValueError):
        composite_nu(cset1, 0.0, 0.0)
    with pytest.raises(ValueError):
        composite_nu(cset1, 0.1, sol.grid.b + 1.0)


def test_composite_nu_continues_left_of_the_grid_with_the_airy_tail(sol, cset1):
    a = sol.grid.a
    # the grid's left end is the tail's Dirichlet value, and every correction is 0 there
    assert sol.nu0[0] == tail_minus(a)
    assert composite_nu(cset1, 0.1, a) == sol.nu0[0]
    left = np.array([np.nextafter(a, -np.inf), -30.0])
    np.testing.assert_array_equal(composite_nu(cset1, 0.1, left), tail_minus(left))
    for y in left:
        value = composite_nu(cset1, 0.1, float(y))
        assert type(value) is float and value == tail_minus(y)


@pytest.mark.parametrize("where", ["right", "nan", "mixed"])
def test_composite_nu_rejects_points_beyond_the_grid_end(sol, cset1, where):
    y = {"right": np.nextafter(sol.grid.b, np.inf), "nan": np.nan,
         "mixed": np.array([-30.0, 0.0, sol.grid.b + 1.0])}[where]
    with pytest.raises(ValueError, match="beyond the profile grid end y = 40"):
        composite_nu(cset1, 0.1, y)


def test_corrections_to_csv(cset2, tmp_path):
    path = tmp_path / "corrections.csv"
    cset2.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "y,nu1,nu2,F1,F2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (cset2.profile.grid.n, 5)
    np.testing.assert_allclose(data[:, 1], cset2.terms[0], atol=1e-15)
