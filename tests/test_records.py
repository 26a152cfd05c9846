"""Result records compare by identity: == answers, and never compares array fields."""

import numpy as np
import pytest

from tfpainleve import (
    TridiagonalOperator,
    build_corrections,
    eig_smallest,
    remainder_study,
    scaling_study,
    solve_ground_state,
    solve_hastings_mcleod,
    uniform_grid,
)


def _operator():
    return TridiagonalOperator(np.full(2, -1.0), np.full(3, 2.0), np.full(2, -1.0))


_BUILDERS = {
    "Grid1D": lambda cset: uniform_grid(0.0, 1.0, 5),
    "TridiagonalOperator": lambda cset: _operator(),
    "PainleveSolution": lambda cset: solve_hastings_mcleod(n_nodes=2001),
    "CorrectionSet": lambda cset: build_corrections(cset.profile, 1, order=1),
    "GroundState": lambda cset: solve_ground_state(0.1, cset, nodes_per_layer=20),
    "RemainderTable": lambda cset: remainder_study(cset, (0.1, 0.05)),
    "ScalingTable": lambda cset: scaling_study(cset, (0.1,), (2.41,), n_pairs=1,
                                               nodes_per_layer=20),
    "SpectrumReport": lambda cset: eig_smallest(_operator(), 1),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_records_compare_by_identity(name, cset1):
    first, second = (_BUILDERS[name](cset1) for _ in range(2))
    assert type(first).__name__ == name
    assert first == first
    assert (first == second) is False
