from dataclasses import fields

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import oracles
from tfpainleve import (
    ConvergenceError,
    build_corrections,
    composite_eta,
    default_grid,
    energy,
    energy_of,
    remainder_study,
    solve_ground_state,
    tail_minus,
    to_boundary_layer,
    uniform_grid,
)
from oracles import thomas_fermi
from tfpainleve import cli, groundstate
from tfpainleve.cli import main
from tfpainleve.corrections import composite_nu
from tfpainleve.groundstate import check_remainder_eps, ground_state_ladder


def test_thomas_fermi_energy_matches_symbolic_quadrature():
    exact = float(oracles.tf_energy_1d())
    assert exact == pytest.approx(-8.0 / 15.0, abs=1e-15)
    grid = uniform_grid(0.0, 2.5, 4001)
    measured = energy_of(0.0, 1, grid, thomas_fermi(grid.nodes))
    assert measured == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("eps", [0.2, 0.05, 0.0125])
def test_d2_energy_is_fourth_order_accurate(cset2, eps):
    # with the origin's Euler-Maclaurin term the energy error is O(h^4), so
    # Richardson from 160 and 320 nodes per layer is the reference
    e40, e160, e320 = (energy(solve_ground_state(eps, cset2, tol=1e-12, nodes_per_layer=npl))
                       for npl in (40, 160, 320))
    richardson = (16.0 * e320 - e160) / 15.0
    assert e40 == pytest.approx(richardson, rel=1e-8, abs=0.0)


def test_ground_state_invariants(gs1_eps01):
    gs = gs1_eps01
    assert gs.residual_max <= 1e-8  # solve_ground_state's default tol
    assert np.all(gs.eta >= 0.0)
    assert float(gs.eta.max()) <= 1.0 + 1e-7
    # radially decreasing profile
    assert np.all(np.diff(gs.eta) <= 1e-12)
    assert gs.eta[-1] == 0.0


def test_ground_state_energy_ordering(cset1):
    e_tf = -8.0 / 15.0
    e10 = energy(solve_ground_state(0.1, cset1))
    e05 = energy(solve_ground_state(0.05, cset1))
    assert e_tf < e05 < e10 < 0.0


def test_ground_state_stable_under_grid_halving(cset1):
    g40 = solve_ground_state(0.1, cset1, nodes_per_layer=40)
    g80 = solve_ground_state(0.1, cset1, nodes_per_layer=80)
    diff = np.abs(CubicSpline(g80.grid.nodes, g80.eta)(g40.grid.nodes) - g40.eta).max()
    assert diff <= 2e-5


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_exponential_envelope_beyond_the_bulk(cset2, eps):
    # eta <= C eps^(1/3) exp((1 - r^2) / (4 eps^(2/3))) for r >= 1, with a
    # single moderate C; the ratio peaks near r = 1 where it approaches nu0(0)
    gs = solve_ground_state(eps, cset2)
    r = gs.grid.nodes
    mask = r >= 1.0
    envelope = eps ** (1.0 / 3.0) * np.exp((1.0 - r[mask] ** 2) / (4.0 * eps ** (2.0 / 3.0)))
    ratio = gs.eta[mask] / envelope
    assert 0.0 < ratio.max() <= 1.0


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_bulk_depletion_bound(cset2, eps):
    # 0 <= TF - eta <= C eps^(1/3) TF for r <= 1 - eps^(1/3)
    gs = solve_ground_state(eps, cset2)
    r = gs.grid.nodes
    mask = r <= 1.0 - eps ** (1.0 / 3.0)
    diff = thomas_fermi(r[mask]) - gs.eta[mask]
    assert diff.min() >= -1e-12
    assert np.max(diff / (eps ** (1.0 / 3.0) * thomas_fermi(r[mask]))) <= 0.2


def test_interior_convergence_rate(cset2):
    # sup over [0, 0.8] of |eta - TF| shrinks at an empirical order near 2;
    # the coarsest pair is still pre-asymptotic, so the finest pair decides
    sups = []
    eps_list = (0.1, 0.05, 0.025)
    for eps in eps_list:
        gs = solve_ground_state(eps, cset2)
        mask = gs.grid.nodes <= 0.8
        sups.append(np.abs(gs.eta[mask] - thomas_fermi(gs.grid.nodes[mask])).max())
    assert sups[0] > sups[1] > sups[2]
    order = np.log(sups[1] / sups[2]) / np.log(2.0)
    assert order == pytest.approx(2.0, abs=0.3)


def test_composite_seed_beats_smoothed_guess_error(sol, cset1):
    order1 = build_corrections(sol, 1, order=1)
    gs = solve_ground_state(0.05, cset1, nodes_per_layer=80, tol=1e-10)
    err2 = np.abs(gs.eta - composite_eta(cset1, 0.05, gs.grid.nodes)).max()
    err1 = np.abs(gs.eta - composite_eta(order1, 0.05, gs.grid.nodes)).max()
    assert err2 < err1


def test_composite_eta_pieces(sol, cset1):
    eps = 0.1
    r = np.array([0.9, 1.0, 1.5, 2.3])
    y = to_boundary_layer(r, eps)
    inside = y >= sol.grid.a
    vals = composite_eta(cset1, eps, r)
    expect = np.where(
        inside,
        eps ** (1.0 / 3.0) * composite_nu(cset1, eps, np.clip(y, sol.grid.a, None)),
        eps ** (1.0 / 3.0) * tail_minus(np.minimum(y, -1.0)),
    )
    np.testing.assert_allclose(vals, expect, rtol=1e-12, atol=1e-300)
    beyond = composite_eta(cset1, eps, 2.42)
    assert beyond == pytest.approx(eps ** (1.0 / 3.0) * tail_minus(to_boundary_layer(2.42, eps)))


def test_composite_eta_maps_to_the_layer_coordinate_and_scales(cset1):
    eps = 0.1
    # inside the window, left of it (y < -20 from r = 1.5 on), and both at once
    for x in (np.array([0.0, 0.5, 0.9, 1.0, 1.2]), np.array([1.5, 2.0, 2.4]),
              np.linspace(0.0, 2.5, 41)):
        np.testing.assert_array_equal(
            composite_eta(cset1, eps, x),
            eps ** (1.0 / 3.0) * composite_nu(cset1, eps, to_boundary_layer(x, eps)))
    for x in (0.9, 2.0):
        value = composite_eta(cset1, eps, x)
        assert type(value) is float
        assert value == eps ** (1.0 / 3.0) * composite_nu(cset1, eps, to_boundary_layer(x, eps))


def test_composite_eta_rejects_coordinates_beyond_profile_grid(cset1):
    with pytest.raises(ValueError, match="beyond the profile grid"):
        composite_eta(cset1, 0.003, 0.0)


@pytest.mark.parametrize(("eps", "admitted"), [(0.003953, True), (0.00395, False)])
def test_layer_window_reaches_the_trap_centre_down_to_eps_0_003953(eps, admitted):
    # the window's right end y = 40 is eps^(-2/3) at eps = 40^(-3/2) = 0.0039528
    if admitted:
        groundstate.check_ground_state(eps, 1, 40)
    else:
        with pytest.raises(ValueError, match="beyond the layer window end y = 40"):
            groundstate.check_ground_state(eps, 1, 40)


def test_solve_validation(cset1, cset3):
    with pytest.raises(ValueError):
        solve_ground_state(0.0, cset1)
    with pytest.raises(ValueError):
        solve_ground_state(0.6, cset1)
    # too-coarse grid for the layer width
    with pytest.raises(ValueError, match="nodes_per_layer must be at least 20"):
        solve_ground_state(0.1, cset1, nodes_per_layer=5)
    # no positive ground state exists for eps * dimension >= 1
    with pytest.raises(ValueError, match="eps \\* dimension"):
        solve_ground_state(1.0 / 3.0, cset3)


def test_solve_rejects_too_few_nodes_per_layer_at_large_eps(cset1):
    # at eps = 0.5 the 201-node floor of default_grid hid 5 nodes per layer
    with pytest.raises(ValueError, match="nodes_per_layer"):
        solve_ground_state(0.5, cset1, nodes_per_layer=5)


def test_nan_coordinates_raise_the_named_error(sol, cset1):
    # every comparison with NaN is False, so only an inside test rejects it
    with pytest.raises(ValueError, match="outside the solution grid"):
        sol.interp_nu0(np.nan)
    with pytest.raises(ValueError, match="beyond the profile grid"):
        composite_nu(cset1, 0.1, np.nan)
    with pytest.raises(ValueError, match="beyond the profile grid"):
        composite_eta(cset1, 0.1, np.nan)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("function", ["to_boundary_layer", "composite_nu", "composite_eta",
                                      "default_grid"])
def test_layer_scale_must_be_finite_and_positive(function, eps, cset1):
    # one rule owns eps^(2/3): inf maps every x to y = 0, 0 and -1 divide by zero or go complex
    calls = {
        "to_boundary_layer": lambda: to_boundary_layer(0.5, eps),
        "composite_nu": lambda: composite_nu(cset1, eps, 0.0),
        "composite_eta": lambda: composite_eta(cset1, eps, 0.5),
        "default_grid": lambda: default_grid(eps),
    }
    with pytest.raises(ValueError, match=f"eps must be finite and positive, got {eps}"):
        calls[function]()


def test_ground_state_takes_its_dimension_from_the_correction_set(cset3):
    assert solve_ground_state(0.1, cset3).dimension == 3


def test_default_grid_resolves_layer():
    grid = default_grid(0.1)
    assert grid.a == 0.0
    assert grid.spacing <= 0.1 ** (2.0 / 3.0) / 20.0


def test_exhausted_iteration_budget_raises_naming_eps(cset1, monkeypatch):
    # one Newton step does not reach 1e-12 from the composite; the failure names the solve
    monkeypatch.setattr(groundstate, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="at eps=0.1 stalled after 1 iterations"):
        solve_ground_state(0.1, cset1, tol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tolerance_below_the_rounding_floor_ends_on_the_floor(sol, cset1, cset2, cset3, d):
    # at 160 nodes per layer the residual stalls near 1e-12, above tol; the
    # kernel's derived floor counts that stall as converged
    cset = {1: cset1, 2: cset2, 3: cset3}[d]
    fine = solve_ground_state(0.1, cset, tol=1e-13, nodes_per_layer=160)
    assert 1e-13 < fine.residual_max <= 1e-11
    coarse = solve_ground_state(0.1, cset, tol=1e-8, nodes_per_layer=160)
    np.testing.assert_allclose(fine.eta, coarse.eta, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize(("tol", "fragment"), [(0.0, "positive"), (-1.0, "positive"),
                                               (np.nan, "finite")])
def test_solve_rejects_a_tolerance_that_is_not_positive_and_finite(cset1, tol, fragment):
    # tol = NaN used to return the unconverged seed, since rnorm > NaN is False
    with pytest.raises(ValueError, match=f"tol must be {fragment}, got {tol}"):
        solve_ground_state(0.1, cset1, tol=tol)


def _remainder_ladder(cset, eps_list):
    # the ladder tfp study's remainder stage draws: solved well past the composite's error
    return ground_state_ladder(cset, eps_list, tol=1e-10, nodes_per_layer=80)


def test_remainder_table_fields(cset1):
    table = remainder_study(_remainder_ladder(cset1, (0.1, 0.05)))
    assert [f.name for f in fields(table)] == ["eps", "err", "pair_order", "fit_order"]
    np.testing.assert_allclose(table.eps, [0.1, 0.05])
    assert np.isnan(table.pair_order[0])
    assert table.pair_order[1] == pytest.approx(table.fit_order, abs=1e-9)
    assert np.all(table.err > 0.0)
    assert table.err[1] < table.err[0]


def test_remainder_study_needs_two_eps(cset1):
    with pytest.raises(ValueError, match="^remainder study needs at least two eps values$"):
        remainder_study([])
    # a repeated eps is the ladder's rule, raised before anything is solved
    with pytest.raises(ValueError, match="distinct"):
        remainder_study(_remainder_ladder(cset1, (0.1, 0.1)))


def test_remainder_study_rejects_a_repeated_eps(gs1_eps01):
    # log(1) / log(1) would make the pair order NaN, with a RuntimeWarning
    with pytest.raises(ValueError, match="^remainder study needs distinct eps values, "
                                         "got \\(0.1, 0.1\\)$"):
        remainder_study([gs1_eps01, gs1_eps01])


def test_remainder_study_tabulates_given_states_without_solving(gs1_eps01, cset1, monkeypatch):
    gs_02 = solve_ground_state(0.2, cset1, nodes_per_layer=20)
    calls = []
    monkeypatch.setattr(groundstate, "solve_ground_state", lambda *a, **k: calls.append(a))
    # ascending, against the ladder's order: the table keeps the order given
    table = remainder_study([gs1_eps01, gs_02])
    assert calls == []
    np.testing.assert_array_equal(table.eps, [0.1, 0.2])
    np.testing.assert_array_equal(
        table.err, [np.abs(gs.eta - gs.composite).max() for gs in (gs1_eps01, gs_02)])
    with pytest.raises(ValueError) as rule:
        check_remainder_eps([0.1])
    with pytest.raises(ValueError) as raised:
        remainder_study([gs1_eps01])
    assert str(raised.value) == str(rule.value)


def test_ground_state_csv(gs1_eps01, cset1, tmp_path):
    # the composite a state carries is the Newton seed, evaluated on every node
    np.testing.assert_array_equal(
        gs1_eps01.composite, composite_eta(cset1, 0.1, gs1_eps01.grid.nodes)
    )
    path = tmp_path / "gs.csv"
    gs1_eps01.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "r,eta,composite,abs_diff"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 2], gs1_eps01.composite)
    np.testing.assert_array_equal(data[:, 3], np.abs(gs1_eps01.eta - gs1_eps01.composite))


def test_ground_state_ladder_checks_before_solving_and_runs_descending(cset1):
    for eps_list, fragment in (((), "empty"), ((0.1, 0.05, 0.1), "distinct")):
        with pytest.raises(ValueError, match=fragment):
            ground_state_ladder(cset1, eps_list)
    ladder = ground_state_ladder(cset1, (0.1, 0.2), nodes_per_layer=20)
    assert [gs.eps for gs in ladder] == [0.2, 0.1]


def test_each_ground_state_evaluates_the_composite_once(cset1, tmp_path, monkeypatch):
    calls = []

    def counted(cset, eps, x):
        calls.append(eps)
        return composite_eta(cset, eps, x)

    monkeypatch.setattr(groundstate, "composite_eta", counted)
    # a copy bound in the CLI module would evaluate the composite a second time
    monkeypatch.setattr(cli, "composite_eta", counted, raising=False)
    remainder_study(_remainder_ladder(cset1, (0.1, 0.05)))
    assert calls == [0.1, 0.05]
    calls.clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.05, 0.2, 0.1\n")
    assert main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [0.2, 0.1, 0.05]
