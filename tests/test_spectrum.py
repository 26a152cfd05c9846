import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracles
from decay import decay_check
import tfpainleve.spectrum as spectrum_module
from tfpainleve import (
    ConvergenceError,
    SpectrumReport,
    assemble_Lplus,
    assemble_M0,
    eig_smallest,
    scaling_study,
    solve_ground_state,
    solve_hastings_mcleod,
    from_solution,
    uniform_grid,
)
from tfpainleve import cli, groundstate
from tfpainleve.grids import TridiagonalOperator
from tfpainleve.groundstate import ground_state_ladder, trap_operator
from tfpainleve.spectrum import check_d1

M0_FIRST_EIGHT = [2.410531, 4.508181, 6.273440, 7.840016,
                  9.270016, 10.599079, 11.849943, 13.038005]


def test_m0_smallest_eigenvalues_regression(m0_report):
    np.testing.assert_allclose(m0_report.eigenvalues, M0_FIRST_EIGHT, atol=2e-5)
    assert np.all(np.diff(m0_report.eigenvalues) > 0.0)


def test_sturm_matches_dense_oracle_on_m0_instance(sol):
    grid = uniform_grid(-20.0, 40.0, 200)
    h = grid.spacing
    w = from_solution(sol)(grid.nodes)[1:-1]
    off = np.full(w.size - 1, -4.0 / h**2)
    op = TridiagonalOperator(off, 8.0 / h**2 + w, off)
    mine = eig_smallest(op, 10).eigenvalues
    np.testing.assert_allclose(mine, oracles.dense_smallest(op, 10), atol=1e-9)


def test_sturm_matches_dense_oracle_on_random_operator():
    rng = np.random.default_rng(1709)
    diag = 1.0 + rng.random(200)
    off = rng.random(199) - 0.5
    op = TridiagonalOperator(off, diag, off)
    mine = eig_smallest(op, 10).eigenvalues
    np.testing.assert_allclose(mine, oracles.dense_smallest(op, 10), atol=1e-9)


@pytest.mark.parametrize("which", ["M0", "Neumann", "Dirichlet", "FullLine"])
def test_eigenpairs_pass_sturm_count_oracle(which, sol, gs1_eps01):
    if which == "M0":
        op, k, label = assemble_M0(sol), 8, "M0"
    elif which == "FullLine":
        gs = gs1_eps01
        op = TridiagonalOperator(*oracles.full_line_lplus(gs.eps, gs.grid.nodes, gs.eta))
        k, label = 8, "generic"
    else:
        op, k, label = assemble_Lplus(gs1_eps01, which), 4, f"Lplus{which}"
    report = eig_smallest(op, k, label=label)
    lam, vecs = report.eigenvalues, report.eigenvectors
    # exactly j eigenvalues below the midpoint of lambda_j and lambda_{j+1}
    mids = 0.5 * (lam[:-1] + lam[1:])
    np.testing.assert_array_equal(oracles.sturm_count(op, mids), np.arange(1, k))
    # largest-magnitude entry positive, unit l2 columns
    cols = np.arange(k)
    assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), cols] > 0.0)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-13)
    # residual gate 64 eps_mach times the Gershgorin scale, from the bands directly
    d, b = np.asarray(op.diag), np.asarray(op.sub)
    rad = np.concatenate([np.abs(b), [0.0]]) + np.concatenate([[0.0], np.abs(b)])
    scale = max(abs(np.min(d - rad)), abs(np.max(d + rad)))
    av = d[:, None] * vecs
    av[1:] += b[:, None] * vecs[:-1]
    av[:-1] += b[:, None] * vecs[1:]
    residual = np.linalg.norm(av - lam * vecs, axis=0)
    assert np.all(residual <= 64.0 * np.finfo(float).eps * scale)


def test_harmonic_surrogate_eigenvalues_closed_form():
    # -4 u'' + y^2 u has eigenvalues 2 (2n - 1)
    grid = uniform_grid(-50.0, 50.0, 4001)
    h = grid.spacing
    diag = 8.0 / h**2 + grid.nodes[1:-1] ** 2
    off = np.full(diag.size - 1, -4.0 / h**2)
    op = TridiagonalOperator(off, diag, off)
    eigs = eig_smallest(op, 3).eigenvalues
    np.testing.assert_allclose(eigs, [2.0, 6.0, 10.0], rtol=1e-4)


def test_half_line_sectors_union_is_full_line(gs1_eps01):
    gs = gs1_eps01
    lam_n = eig_smallest(assemble_Lplus(gs, "Neumann"), 4, label="LplusNeumann").eigenvalues
    lam_d = eig_smallest(assemble_Lplus(gs, "Dirichlet"), 4, label="LplusDirichlet").eigenvalues
    full = TridiagonalOperator(*oracles.full_line_lplus(gs.eps, gs.grid.nodes, gs.eta))
    lam_f = oracles.dense_smallest(full, 8)
    union = np.sort(np.concatenate([lam_n, lam_d]))
    np.testing.assert_allclose(union, lam_f, atol=1e-10)
    # strict interleaving lambda_1 < lambda_2 < lambda_3 < ...
    for i in range(3):
        assert lam_n[i] < lam_d[i] < lam_n[i + 1]


def test_double_well_pair_gaps_grow_with_level(gs1_eps01):
    lam_n = eig_smallest(assemble_Lplus(gs1_eps01, "Neumann"), 4).eigenvalues
    lam_d = eig_smallest(assemble_Lplus(gs1_eps01, "Dirichlet"), 4).eigenvalues
    gaps = (lam_d - lam_n) / lam_d
    assert np.all(gaps > 0.0)
    assert np.all(np.diff(gaps) > 0.0)
    assert gaps[0] < 1e-6
    assert gaps[3] < 1e-2


def test_lplus_is_the_symmetrized_ground_state_jacobian(gs1_eps01):
    # S^-1 J S with S = diag(sqrt 2, 1, ...) symmetrizes the origin's ghost row
    gs = gs1_eps01
    jac = oracles.dense(trap_operator(gs.eps, 1, gs.grid, gs.eta[:-1]))
    s = np.ones(gs.grid.n - 1)
    s[0] = np.sqrt(2.0)
    neumann = oracles.dense(assemble_Lplus(gs, "Neumann"))
    np.testing.assert_allclose(neumann, jac * s[None, :] / s[:, None], rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(oracles.dense(assemble_Lplus(gs, "Dirichlet")), neumann[1:, 1:])


def test_lplus_assembly_validation(cset2):
    gs2 = solve_ground_state(0.1, cset2)
    with pytest.raises(ValueError, match="d=1"):
        assemble_Lplus(gs2, "Neumann")


def test_unknown_boundary_tag(gs1_eps01):
    with pytest.raises(ValueError):
        assemble_Lplus(gs1_eps01, "Robin")


def test_report_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectrumReport(operator="generic", eigenvalues=[2.0, 1.0], eigenvectors=np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        SpectrumReport(operator="M0", eigenvalues=[-1.0, 1.0], eigenvectors=np.eye(2))


def test_eig_smallest_validation(gs1_eps01):
    op = assemble_Lplus(gs1_eps01, "Neumann")
    with pytest.raises(ValueError):
        eig_smallest(op, 0)
    with pytest.raises(ValueError):
        eig_smallest(op, op.n + 1)
    lop = TridiagonalOperator([1.0, 1.0], [2.0, 2.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="symmetric"):
        eig_smallest(lop, 1)


def test_eig_smallest_rejects_inaccurate_pairs(monkeypatch):
    op = TridiagonalOperator(-np.ones(49), np.full(50, 2.0), -np.ones(49))
    exact = spectrum_module._tridiagonal_pairs

    def rough_vectors(*args, **kwargs):
        w, v = exact(*args, **kwargs)
        return w, v + 1e-6

    def shifted_values(*args, **kwargs):
        w, v = exact(*args, **kwargs)
        return w + 1e-3, v

    monkeypatch.setattr(spectrum_module, "_tridiagonal_pairs", rough_vectors)
    with pytest.raises(ConvergenceError, match="residual"):
        eig_smallest(op, 3)
    monkeypatch.setattr(spectrum_module, "_tridiagonal_pairs", shifted_values)
    with pytest.raises(ConvergenceError, match="drifted"):
        eig_smallest(op, 3)


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spy_bisections(monkeypatch):
    """Record the abstol of every dstebz pass that eig_smallest makes."""
    abstols = []
    exact = spectrum_module._tridiagonal_pairs

    def spy(d, e, k, abstol):
        abstols.append(abstol)
        return exact(d, e, k, abstol)

    monkeypatch.setattr(spectrum_module, "_tridiagonal_pairs", spy)
    return abstols


@pytest.mark.parametrize(("workload", "bisections"), [("scaling_ladder", 21), ("study_d1", 7)])
def test_workload_eigensolves_bisect_once_each(workload, bisections, tmp_path, monkeypatch):
    # 20 L+ sectors and one M0 for spectrum; 6 L+ sectors and one M0 for study:
    # no operator of a workload config takes the full-precision retry
    abstols = _spy_bisections(monkeypatch)
    wl = _workloads()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(wl.config_text(workload, 0))
    assert cli.main(wl.argv(workload, str(cfg), str(tmp_path / "out"))) == 0
    assert len(abstols) == bisections
    assert all(a > 0.0 for a in abstols)


def test_double_well_full_line_takes_the_full_precision_retry(gs1_eps01, monkeypatch):
    # its tunnelling gap lies between the two bisection widths: the first pass
    # fails the residual gate, the retry is the full-precision call
    gs = gs1_eps01
    op = TridiagonalOperator(*oracles.full_line_lplus(gs.eps, gs.grid.nodes, gs.eta))
    abstols = _spy_bisections(monkeypatch)
    retried = eig_smallest(op, 8)
    assert len(abstols) == 2 and abstols[0] > 0.0 and abstols[1] == 0.0
    monkeypatch.setattr(spectrum_module, "_BISECTION_TOL", 0.0)
    direct = eig_smallest(op, 8)
    assert abstols[2:] == [0.0]
    np.testing.assert_array_equal(retried.eigenvalues, direct.eigenvalues)
    np.testing.assert_array_equal(retried.eigenvectors, direct.eigenvectors)


def _residual_gate(op, report):
    """(largest residual |A u - lambda u|, its gate 64 eps_mach times the Gershgorin scale)."""
    d, b = np.asarray(op.diag), np.asarray(op.sub)
    rad = np.concatenate([np.abs(b), [0.0]]) + np.concatenate([[0.0], np.abs(b)])
    scale = max(abs(np.min(d - rad)), abs(np.max(d + rad)))
    vecs, lam = report.eigenvectors, report.eigenvalues
    av = d[:, None] * vecs
    av[1:] += b[:, None] * vecs[:-1]
    av[:-1] += b[:, None] * vecs[1:]
    return np.linalg.norm(av - lam * vecs, axis=0).max(), 64.0 * np.finfo(float).eps * scale


def test_first_pass_holds_half_the_gate_on_the_largest_m0(monkeypatch):
    # the largest residual found over M0 on 2,000-120,001 nodes and L+ over
    # eps 0.5-0.005 was this operator's, 0.12 of the gate
    op = assemble_M0(solve_hastings_mcleod(120001))
    abstols = _spy_bisections(monkeypatch)
    report = eig_smallest(op, 14, label="M0")
    assert len(abstols) == 1
    residual, gate = _residual_gate(op, report)
    assert residual <= 0.5 * gate


def test_eig_smallest_one_node():
    report = eig_smallest(TridiagonalOperator([], [2.0], []), 1)
    np.testing.assert_array_equal(report.eigenvalues, [2.0])
    np.testing.assert_array_equal(report.eigenvectors, [[1.0]])


def test_decay_certificates(m0_report, sol):
    certs = decay_check(m0_report, sol)
    assert [c.m for c in certs] == list(range(1, 9))
    bounds = np.array([c.c_bound for c in certs])
    assert np.all(np.diff(bounds) > 0.0)  # constants grow with the level
    oracle_bounds, _ = oracles.mp_decay_constants(assemble_M0(sol), sol.grid.nodes[1:-1], 8)
    np.testing.assert_allclose(oracle_bounds[:4], oracles.MP_DECAY_C_BOUND,
                               rtol=oracles.MP_DECAY_RTOL)
    np.testing.assert_allclose(bounds[:4], oracles.MP_DECAY_C_BOUND, rtol=0.02)
    assert all(c.within_bound for c in certs[:3])
    assert not certs[3].within_bound
    assert all(c.c_deriv > 0.0 for c in certs)


def test_decay_check_validation(m0_report, sol):
    short = SpectrumReport(operator="M0", eigenvalues=m0_report.eigenvalues,
                           eigenvectors=m0_report.eigenvectors[:-1])
    with pytest.raises(ValueError, match="unknowns"):
        decay_check(short, sol)
    renamed = SpectrumReport(operator="generic", eigenvalues=m0_report.eigenvalues,
                             eigenvectors=m0_report.eigenvectors)
    with pytest.raises(ValueError, match="M0"):
        decay_check(renamed, sol)


def test_scaling_table_layout(cset1, m0_report):
    table = scaling_study(ground_state_ladder(cset1, (0.1, 0.05), nodes_per_layer=24),
                          m0_report.eigenvalues, 2)
    np.testing.assert_allclose(table.eps, [0.1, 0.1, 0.05, 0.05])
    np.testing.assert_allclose(table.n, [1.0, 2.0, 1.0, 2.0])
    np.testing.assert_allclose(table.scaled_odd, table.lambda_odd / table.eps ** (2.0 / 3.0))
    np.testing.assert_allclose(table.pair_gap,
                               (table.lambda_even - table.lambda_odd) / table.lambda_even)
    np.testing.assert_allclose(table.mu[:2], M0_FIRST_EIGHT[:2], atol=2e-5)
    # below eps ~ 0.05 the tunneling splitting reaches the rounding floor,
    # where the measured gap can carry either sign
    assert np.all(table.lambda_odd <= table.lambda_even + 1e-12)


def test_scaling_table_csv(cset1, m0_report, tmp_path):
    table = scaling_study(ground_state_ladder(cset1, (0.1,), nodes_per_layer=24),
                          m0_report.eigenvalues, 1)
    path = tmp_path / "scaling.csv"
    table.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "eps,n,lambda_odd,lambda_even,scaled_odd,scaled_even,mu_n,pair_gap"


def test_scaling_study_validation(gs1_eps01):
    with pytest.raises(ValueError, match="n_pairs"):
        scaling_study([gs1_eps01], [2.41], 2)


def test_scaling_study_tabulates_given_states_without_solving(gs1_eps01, m0_report, monkeypatch):
    calls = []
    # patched where the package binds it, and in spectrum should it ever bind it too
    for module in (groundstate, spectrum_module):
        monkeypatch.setattr(module, "solve_ground_state", lambda *a, **k: calls.append(a),
                            raising=False)
    table = scaling_study([gs1_eps01, gs1_eps01], m0_report.eigenvalues, 1)
    assert calls == []
    np.testing.assert_array_equal(table.eps, [0.1, 0.1])
    assert table.lambda_odd[0] == table.lambda_odd[1]


def test_scaling_study_rejects_no_states(m0_report):
    with pytest.raises(ValueError, match="^scaling_study needs at least one ground state$"):
        scaling_study([], m0_report.eigenvalues, 1)


def test_scaling_study_rejects_a_d2_state_by_the_d1_rule(cset2, m0_report):
    with pytest.raises(ValueError) as rule:
        check_d1(2)
    gs2 = solve_ground_state(0.1, cset2, nodes_per_layer=20)
    with pytest.raises(ValueError) as raised:
        scaling_study([gs2], m0_report.eigenvalues, 1)
    assert str(raised.value) == str(rule.value)
