"""Each named error or warning of the package is raised where its message says."""

import math

import numpy as np
import pytest

from tfpainleve import ConvergenceError, groundstate, painleve
from tfpainleve.corrections import loglog_slope
from tfpainleve.grids import (TridiagonalOperator, first_difference, second_difference,
                              solve_tridiagonal, uniform_grid)
from tfpainleve.painleve import LAYER_WINDOW, bn_coefficients, tail_minus, tail_plus
from tfpainleve.semiclassics import from_function
from tfpainleve.spectrum import eig_smallest


# (call, raised exception or warning class, message pattern); a None class means
# the call names its failure by returning NaN
CASES = [
    pytest.param(lambda: TridiagonalOperator(np.ones(1), np.ones(3), np.ones(2)),
                 ValueError, "band lengths 1/3/2 do not form", id="grids-band-lengths"),
    pytest.param(lambda: solve_tridiagonal(TridiagonalOperator(np.ones(2), np.ones(3), np.ones(2)),
                                           np.ones(4)),
                 ValueError, r"rhs of shape \(4,\) does not match operator size 3",
                 id="grids-rhs-shape"),
    pytest.param(lambda: second_difference(np.ones(4), uniform_grid(0.0, 1.0, 5)),
                 ValueError, r"values shape \(4,\) does not match grid size 5",
                 id="grids-second-difference-shape"),
    pytest.param(lambda: first_difference(np.ones(6), uniform_grid(0.0, 1.0, 5)),
                 ValueError, r"values shape \(6,\) does not match grid size 5",
                 id="grids-first-difference-shape"),
    pytest.param(lambda: bn_coefficients(-1),
                 ValueError, "series order must be nonnegative, got -1", id="painleve-series-order"),
    pytest.param(lambda: tail_plus(np.array([1.0, 0.0]), bn_coefficients(4)),
                 ValueError, "tail_plus is defined for y > 0 only", id="painleve-tail-plus-domain"),
    pytest.param(lambda: tail_minus(0.0),
                 ValueError, "tail_minus is defined for y < 0 only", id="painleve-tail-minus-domain"),
    pytest.param(lambda: tail_minus(-0.5),
                 UserWarning, "outside its asymptotic range", id="painleve-tail-minus-warning"),
    pytest.param(lambda: eig_smallest(TridiagonalOperator(np.zeros(2), np.zeros(3), np.zeros(2)), 1),
                 ValueError, "zero operator", id="spectrum-zero-operator"),
    # y^2 e^(-y) has its minimum at 0 and falls again right of its maximum at y = 2
    pytest.param(lambda: from_function(lambda y: np.asarray(y) ** 2 * np.exp(-np.asarray(y)),
                                       -1.0, 5.0),
                 ValueError, "potential falls right of its minimum", id="semiclassics-falls-right"),
    pytest.param(lambda: loglog_slope([1.0, 2.0, 4.0], [1.0, 0.0, 0.25]),
                 None, None, id="corrections-loglog-slope-zero"),
]


@pytest.mark.parametrize(("call", "kind", "match"), CASES)
def test_named_error(call, kind, match):
    if kind is None:
        assert math.isnan(call())
    elif issubclass(kind, Warning):
        with pytest.warns(kind, match=match):
            call()
    else:
        with pytest.raises(kind, match=match):
            call()


def _set(x, index, value):
    x = x.copy()
    x[index] = value
    return x


def _dip(x):
    # nu^2 - y of the initial guess is positive and falls to the negative right end
    # value; a 5 % dip at y = 10 keeps nu increasing and adds two sign changes
    y = np.linspace(*LAYER_WINDOW, x.size + 2)[1:-1]
    return x * (1.0 - 0.05 * np.exp(-((y - 10.0) ** 2)))


# (module whose solve checks the iterate damped_newton hands back, that iterate
# crafted from the initial guess, message pattern)
NEWTON_CASES = [
    pytest.param(painleve, lambda x: _set(x, 5, -1.0),
                 "converged iterate is not strictly positive", id="painleve-not-positive"),
    pytest.param(painleve, lambda x: _set(x, 1000, x[998]),
                 "converged iterate is not strictly increasing", id="painleve-not-increasing"),
    pytest.param(painleve, _dip,
                 "curvature changes sign 3 times, expected exactly 1", id="painleve-curvature"),
    pytest.param(groundstate, lambda x: _set(x, x.size // 2, -1e-6),
                 "ground state lost positivity beyond rounding slack",
                 id="groundstate-positivity"),
    pytest.param(groundstate, lambda x: np.full_like(x, 2.0),
                 "ground state exceeds the bulk bound: max 2.000000", id="groundstate-bulk-bound"),
]


@pytest.mark.parametrize(("module", "craft", "match"), NEWTON_CASES)
def test_named_error_of_the_converged_iterate(module, craft, match, cset1, monkeypatch):
    def newton(residual, jacobian, x0, *args, **kwargs):
        return craft(x0), 0.0, 1

    monkeypatch.setattr(module, "damped_newton", newton)
    with pytest.raises(ConvergenceError, match=match):
        if module is painleve:
            painleve.solve_hastings_mcleod(2000)
        else:
            groundstate.solve_ground_state(0.1, cset1, nodes_per_layer=20)
