"""The benchmark's per-layer hooks must find what they wrap.

perfbench/tracing.py skips a traced function that no longer exists, so a
rename or a dropped parameter would silently zero its per-layer metrics; so
would a dropped attribute of a result that a counts hook reads.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import tfpainleve
import tfpainleve.cli  # noqa: F401 - loads every module the CLI binds
from tfpainleve.groundstate import ground_state_ladder


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist_with_the_parameters_tracing_reads():
    layers = _tracing()._layers(tfpainleve)
    params = {}
    for module, name, _, _ in layers:
        fn = getattr(module, name, None)
        assert callable(fn), f"{module.__name__}.{name} is gone"
        params[name] = set(inspect.signature(fn).parameters)
    assert {"op", "k", "label"} <= params["eig_smallest"]
    assert {"op"} <= params["solve_tridiagonal"]
    assert {"path", "columns"} <= params["write_csv"]


def test_counts_read_what_real_results_carry(sol, cset1, gs1_eps01, tmp_path):
    layers = {name: (module, attrs) for module, name, _, attrs in _tracing()._layers(tfpainleve)}

    def counts(name, result, *args):
        module, attrs = layers[name]
        return attrs(getattr(module, name))(args, {}, result)

    assert counts("solve_hastings_mcleod", sol) == {"newton_iters": sol.newton_iterations}
    assert sol.newton_iterations > 0
    assert counts("solve_ground_state", gs1_eps01) == {
        "newton_iters": gs1_eps01.newton_iterations, "unknowns": gs1_eps01.grid.n,
    }
    table = tfpainleve.scaling_study(ground_state_ladder(cset1, (0.1,)), (2.41,), 1)
    assert counts("scaling_study", table) == {
        "gap_nonpositive": int(np.count_nonzero(table.pair_gap <= 0.0))
    }
    op = tfpainleve.assemble_M0(sol)
    assert counts("eig_smallest", None, op, 2) == {"work": 2 * op.n}
    assert counts("solve_tridiagonal", None, op, np.ones(op.n)) == {"unknowns": op.n}
    path = tmp_path / "t.csv"
    tfpainleve._io.write_csv(path, ["a"], [np.arange(3.0)])
    assert counts("write_csv", None, path, ["a"], [np.arange(3.0)]) == {
        "bytes": path.stat().st_size, "rows": 3,
    }
