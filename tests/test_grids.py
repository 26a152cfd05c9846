import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from oracles import dense
from tfpainleve import (
    Grid1D,
    SingularPivotError,
    assemble_Lplus,
    assemble_M0,
    first_difference,
    second_difference,
    solve_tridiagonal,
    uniform_grid,
)
from tfpainleve.grids import TridiagonalOperator, UniformSpline, to_boundary_layer


def test_uniform_grid_basics():
    g = uniform_grid(-1.0, 2.0, 7)
    assert g.n == 7
    assert g.a == -1.0 and g.b == 2.0
    assert g.spacing == pytest.approx(0.5)
    np.testing.assert_allclose(np.diff(g.nodes), 0.5)


def test_uniform_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        uniform_grid(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        uniform_grid(0.0, 1.0, 1)


@pytest.mark.parametrize("nodes", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]])
def test_grid_rejects_non_finite_nodes(nodes):
    with pytest.raises(ValueError, match="grid nodes must be finite"):
        Grid1D(np.array(nodes))


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)])
def test_uniform_grid_rejects_non_finite_ends(a, b):
    # checked before linspace, which would warn on these ends
    with pytest.raises(ValueError, match="grid ends must be finite"):
        uniform_grid(a, b, 5)


def test_grid_rejects_nonuniform_nodes():
    with pytest.raises(ValueError, match="uniformly spaced"):
        Grid1D(np.array([0.0, 0.1, 0.3, 0.4]))
    with pytest.raises(ValueError, match="uniformly spaced"):
        Grid1D(np.linspace(0.0, 1.0, 51) ** 2)
    with pytest.raises(ValueError, match="increasing"):
        Grid1D(np.array([0.0, 1.0, 0.5]))
    # linspace rounding on a shifted, scaled grid is not a spacing change
    g = Grid1D(-(2.0 ** (-2.0 / 3.0)) * np.linspace(-20.0, 40.0, 6001)[::-1])
    assert g.spacing == pytest.approx(0.01 * 2.0 ** (-2.0 / 3.0))


def test_tridiagonal_solve_matches_dense(rng):
    n = 60
    sub = rng.standard_normal(n - 1)
    sup = rng.standard_normal(n - 1)
    diag = rng.standard_normal(n) + 8.0  # diagonally dominant
    op = TridiagonalOperator(sub, diag, sup)
    b = rng.standard_normal(n)
    x = solve_tridiagonal(op, b)
    np.testing.assert_allclose(dense(op) @ x, b, atol=1e-12)
    np.testing.assert_allclose(x, np.linalg.solve(dense(op), b), atol=1e-11)


def test_tridiagonal_apply_matches_dense(rng):
    n = 17
    op = TridiagonalOperator(
        rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    )
    v = rng.standard_normal(n)
    np.testing.assert_allclose(op.apply(v), dense(op) @ v, atol=1e-13)


def test_tridiagonal_apply_on_a_block_is_the_apply_of_each_column(rng):
    n, k = 17, 4
    op = TridiagonalOperator(
        rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    )
    block = rng.standard_normal((n, k))
    columns = np.stack([op.apply(block[:, j]) for j in range(k)], axis=1)
    np.testing.assert_array_equal(op.apply(block), columns)


@pytest.mark.parametrize("shape", [(18,), (16, 2), (17, 2, 2)])
def test_tridiagonal_apply_rejects_a_mismatched_operand(shape):
    op = TridiagonalOperator(np.ones(16), np.ones(17), np.ones(16))
    with pytest.raises(ValueError, match="does not match operator size 17"):
        op.apply(np.ones(shape))


@pytest.mark.parametrize("n", [1, 2, 17])
def test_tridiagonal_norm_is_the_dense_infinity_norm(rng, n):
    for _ in range(50):
        op = TridiagonalOperator(
            rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
        )
        assert op.norm == pytest.approx(np.linalg.norm(dense(op), np.inf), rel=1e-15)


def _gershgorin(op):
    """The scale eig_smallest once took: max(|min(d - rad)|, |max(d + rad)|)."""
    rad = np.zeros(op.n)
    rad[:-1] += np.abs(op.sub)
    rad[1:] += np.abs(op.sub)
    return max(abs(float(np.min(op.diag - rad))), abs(float(np.max(op.diag + rad))))


def test_symmetric_norm_is_the_gershgorin_scale_bit_for_bit(rng, sol, gs1_eps01):
    ops = [assemble_M0(sol), assemble_Lplus(gs1_eps01, "Neumann"),
           assemble_Lplus(gs1_eps01, "Dirichlet")]
    for n in rng.integers(1, 400, size=500):
        off, diag = rng.standard_normal(n - 1), rng.standard_normal(n)
        ops.append(TridiagonalOperator(off, diag * 10.0 ** rng.uniform(-3, 3), off))
    for op in ops:
        assert op.norm == _gershgorin(op)


def test_singular_pivot_reported():
    op = TridiagonalOperator(np.zeros(1), np.array([1.0, 0.0]), np.zeros(1))
    with pytest.raises(SingularPivotError):
        solve_tridiagonal(op, np.ones(2))


def test_second_difference_exact_on_quadratics():
    g = uniform_grid(-2.0, 3.0, 41)
    x = g.nodes
    d2 = second_difference(3.0 * x**2 - x + 2.0, g)
    np.testing.assert_allclose(d2, 6.0, atol=1e-10)


def test_second_difference_sine_accuracy():
    # h = 1e-2 resolves sin to the h^2/12 Taylor envelope
    g = uniform_grid(0.0, 1.0, 101)
    x = g.nodes
    d2 = second_difference(np.sin(x), g)
    assert np.max(np.abs(d2 + np.sin(x))) <= 1e-4


def test_first_difference_accuracy():
    g = uniform_grid(0.0, 1.0, 101)
    x = g.nodes
    d1 = first_difference(np.cos(x), g)
    err = np.abs(d1 + np.sin(x))
    assert np.max(err[2:-2]) <= 1e-9  # fourth-order interior
    assert np.max(err) <= 1e-4  # second-order edge closure


@pytest.mark.parametrize("n", [3, 4, 5])
def test_first_difference_exact_on_quadratics_short_grids(n):
    g = uniform_grid(-1.0, 2.0, n)
    x = g.nodes
    np.testing.assert_allclose(first_difference(x**2 - 3.0 * x, g), 2.0 * x - 3.0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_second_difference_exact_on_quadratics_short_grids(n):
    g = uniform_grid(-1.0, 2.0, n)
    x = g.nodes
    np.testing.assert_allclose(second_difference(2.5 * x**2 - 3.0 * x + 1.0, g), 5.0, atol=1e-12)


def test_boundary_layer_maps_roundtrip():
    eps = 0.05
    x = np.linspace(0.0, 1.4, 40)
    y = to_boundary_layer(x, eps)
    np.testing.assert_allclose(y, (1.0 - x * x) / eps ** (2.0 / 3.0), rtol=1e-15, atol=0.0)
    assert y[0] == pytest.approx(eps ** (-2.0 / 3.0))
    assert to_boundary_layer(1.0, eps) == 0.0


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", [4, 5, 6001])
def test_spline_matches_scipy_not_a_knot_oracle(n):
    rng = np.random.default_rng(n)
    if n < 10:
        g = uniform_grid(-1.0, 2.0, n)
        v = rng.normal(size=n)
    else:
        g = uniform_grid(0.0, 18.0, n)  # h = 0.003
        v = np.sin(3.0 * g.nodes) + 0.5 * np.cos(0.7 * g.nodes)
    spline = UniformSpline(g, v)
    oracle = CubicSpline(g.nodes, v)
    y = np.concatenate((rng.uniform(g.a, g.b, 1000), g.nodes, [g.a, g.b]))
    scale = np.max(np.abs(v))
    np.testing.assert_allclose(spline(y), oracle(y), rtol=0.0, atol=50 * _EPS * scale)


@pytest.mark.parametrize("n", [4, 5, 50])
def test_spline_reproduces_cubics(n):
    g = uniform_grid(-1.0, 2.0, n)

    def p(y):
        return 1.0 - 2.0 * y + 0.5 * y**2 + 0.3 * y**3

    spline = UniformSpline(g, p(g.nodes))
    y = np.linspace(-1.2, 2.2, 301)  # the end cubics extrapolate
    np.testing.assert_allclose(spline(y), p(y), rtol=0.0, atol=1e-12)


def test_spline_scalar_in_float_out():
    g = uniform_grid(0.0, 1.0, 11)
    spline = UniformSpline(g, g.nodes**2)
    assert type(spline(0.35)) is float
    assert spline(np.array([0.35])).shape == (1,)


def test_spline_validation():
    with pytest.raises(ValueError, match="at least 4"):
        UniformSpline(uniform_grid(0.0, 1.0, 3), np.zeros(3))
    with pytest.raises(ValueError, match="does not match"):
        UniformSpline(uniform_grid(0.0, 1.0, 5), np.zeros(4))
    with pytest.raises(ValueError, match="does not match"):
        UniformSpline(uniform_grid(0.0, 1.0, 5), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="does not match"):
        UniformSpline(uniform_grid(0.0, 1.0, 5), (np.zeros(5), np.zeros(4)))


def _columns(g, rng):
    # the oracle test's samples: noise on short grids, smooth functions on long ones
    if g.n < 10:
        return tuple(rng.normal(size=g.n) for _ in range(3))
    y = g.nodes
    return (np.sin(3.0 * y) + 0.5 * np.cos(0.7 * y), np.cos(2.0 * y), np.exp(-0.2 * y))


@pytest.mark.parametrize("n", [4, 5, 6001])
def test_multi_column_spline_equals_its_single_column_splines(n):
    rng = np.random.default_rng(n)
    g = uniform_grid(-1.0, 2.0, n)
    columns = _columns(g, rng)
    spline = UniformSpline(g, columns)
    y = np.concatenate((rng.uniform(g.a - 0.2, g.b + 0.2, 1000), g.nodes))
    values = spline(y)
    assert isinstance(values, tuple) and len(values) == len(columns)
    for v, got in zip(columns, values):
        np.testing.assert_array_equal(got, UniformSpline(g, v)(y))
    scalars = spline(0.35)
    assert all(type(s) is float for s in scalars)
    assert scalars == tuple(UniformSpline(g, v)(0.35) for v in columns)


@pytest.mark.parametrize("n", [4, 5, 6001])
def test_multi_column_spline_matches_scipy_not_a_knot_oracle(n):
    rng = np.random.default_rng(n)
    g = uniform_grid(0.0, 18.0, n)
    columns = _columns(g, rng)
    y = np.concatenate((rng.uniform(g.a, g.b, 1000), g.nodes, [g.a, g.b]))
    for v, got in zip(columns, UniformSpline(g, columns)(y)):
        oracle = CubicSpline(g.nodes, v)
        np.testing.assert_allclose(got, oracle(y), rtol=0.0, atol=50 * _EPS * np.max(np.abs(v)))

#END
