"""Each named error or warning of the package is raised where its message says."""

import math

import numpy as np
import pytest

from tfpainleve.corrections import loglog_slope
from tfpainleve.grids import (TridiagonalOperator, first_difference, second_difference,
                              solve_tridiagonal, uniform_grid)
from tfpainleve.painleve import bn_coefficients, tail_minus, tail_plus
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
