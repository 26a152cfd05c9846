"""Result records compare by identity (== answers, and never compares array fields) and
hold their arrays as read-only float64."""

from dataclasses import fields

import numpy as np
import pytest

from tfpainleve import (
    Grid1D,
    TridiagonalOperator,
    build_corrections,
    eig_smallest,
    from_solution,
    remainder_study,
    scaling_study,
    solve_ground_state,
    solve_hastings_mcleod,
    uniform_grid,
)
from tfpainleve.groundstate import ground_state_ladder


def _operator():
    return TridiagonalOperator(np.full(2, -1.0), np.full(3, 2.0), np.full(2, -1.0))


_BUILDERS = {
    "Grid1D": lambda cset: uniform_grid(0.0, 1.0, 5),
    "TridiagonalOperator": lambda cset: _operator(),
    "PainleveSolution": lambda cset: solve_hastings_mcleod(n_nodes=2001),
    "CorrectionSet": lambda cset: build_corrections(cset.profile, 1, order=1),
    "GroundState": lambda cset: solve_ground_state(0.1, cset, nodes_per_layer=20),
    "RemainderTable": lambda cset: remainder_study(
        ground_state_ladder(cset, (0.1, 0.05), tol=1e-10, nodes_per_layer=80)),
    "ScalingTable": lambda cset: scaling_study(
        ground_state_ladder(cset, (0.1,), nodes_per_layer=20), (2.41,), 1),
    "SpectrumReport": lambda cset: eig_smallest(_operator(), 1),
    "PotentialProfile": lambda cset: from_solution(cset.profile),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_records_compare_by_identity(name, cset1):
    first, second = (_BUILDERS[name](cset1) for _ in range(2))
    assert type(first).__name__ == name
    assert first == first
    assert (first == second) is False


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_record_arrays_are_read_only_floats(name, cset1):
    rec = _BUILDERS[name](cset1)
    arrays = []
    for f in fields(rec):
        value = getattr(rec, f.name)
        if f.type == "np.ndarray":
            arrays.append(value)
        elif f.type == "tuple":
            assert isinstance(value, tuple) and value, f.name
            arrays.extend(value)
    assert arrays, f"{name} declares no array field"
    for arr in arrays:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_rejected_record_leaves_the_callers_array_writable():
    # the checks run before the arrays are frozen
    nodes = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="uniformly spaced"):
        Grid1D(nodes)
    assert nodes.flags.writeable
    nodes[2:] = (0.2, 0.3)
    assert Grid1D(nodes).nodes is nodes and not nodes.flags.writeable
