"""The benchmark's per-layer hooks must find what they wrap.

perfbench/tracing.py skips a traced function that no longer exists, so a
rename or a dropped parameter would silently zero its per-layer metrics.
"""

import importlib.util
import inspect
from pathlib import Path

import tfpainleve
import tfpainleve.cli  # noqa: F401 - loads every module the CLI binds


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
