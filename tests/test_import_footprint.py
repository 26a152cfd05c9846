"""The runtime needs numpy and scipy's LAPACK extension only.

scipy.interpolate alone pulls in scipy.optimize, scipy.special, scipy.fft and
scipy.spatial, about a third of a cold ``tfp`` start.  The package
``__init__`` of scipy.linalg clones the numpy namespace and so imports
numpy.f2py, numpy.testing, numpy.ma and numpy.random, about half of what is
left; ``grids`` loads the LAPACK extension from its file instead.  The CLI
import ends by freezing what it leaves alive, so that a cold run's exit does
not collect it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tfpainleve

_HEAVY = ("scipy.interpolate", "scipy.optimize", "scipy.special")
_LINALG_INIT = ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma", "numpy.random")


def _env():
    src = str(Path(tfpainleve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_loads_no_heavy_scipy_module():
    # scipy.linalg imported afterwards, as the test oracles do, must still work
    code = (
        "import sys, tfpainleve.cli; print(' '.join(sorted(sys.modules)))\n"
        "import scipy.linalg; scipy.linalg.lapack.dgtsv"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    ).stdout.split()
    assert [m for m in _LINALG_INIT if m in loaded] == []
    assert [m for m in _HEAVY if m in loaded] == []


_SMALL_RUNS = {
    "bs": "bs_levels = 1,2,3\n",
    "spectrum": "eps = 0.1, 0.05\nn_pairs = 1\n",
    "groundstate": "dimension = 3\neps = 0.1\nn_nodes = 2001\n",
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_run_loads_no_numpy_ma(tmp_path, command):
    # numpy.unique reads numpy.ma.is_masked, so a run must not reach it; past
    # what parsing the command line loads (gettext's locale lookup), a run
    # (CSV formatting included) imports nothing
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUNS[command])
    code = (
        "import sys\nfrom tfpainleve import cli\n"
        f"assert cli.main([{command!r}, '--config', {str(tmp_path / 'missing.cfg')!r}]) == 1\n"
        "parsed = set(sys.modules)\n"
        f"assert cli.main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "print(' '.join(sorted(set(sys.modules) - parsed)))"
    )
    loaded, new = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    ).stdout.split("\n")[:2]
    assert "numpy.ma" not in loaded.split()
    assert new.split() == []


def test_cli_import_freezes_its_heap_and_leaves_the_collector_on():
    # frozen, the import's objects are skipped by the collections at exit;
    # a cycle made after the import is still collected, and the library
    # import alone freezes nothing
    code = (
        "import gc, weakref, tfpainleve\n"
        "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
        "import tfpainleve.cli\n"
        "assert gc.get_freeze_count() > 0, gc.get_freeze_count()\n"
        "assert gc.isenabled()\n"
        "class Node: pass\n"
        "node = Node(); node.self = node; alive = weakref.ref(node); del node\n"
        "gc.collect()\n"
        "assert alive() is None"
    )
    subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, check=True)


def test_main_runs_freeze_nothing(tmp_path):
    # a freeze per call would keep the uncollected cycles of every earlier call
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUNS["spectrum"])
    run = f"cli.main(['spectrum', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])"
    code = (
        "import gc\nfrom tfpainleve import cli\n"
        "frozen = gc.get_freeze_count()\n"
        f"assert {run} == 0 and {run} == 0\n"
        "assert gc.get_freeze_count() == frozen, (frozen, gc.get_freeze_count())"
    )
    subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, check=True)


def test_no_source_file_names_scipy_interpolate():
    # a deferred import inside a function would not show in the import above
    root = Path(tfpainleve.__file__).parent
    named = [p.name for p in root.rglob("*.py") if "scipy.interpolate" in p.read_text()]
    assert named == []


def test_every_source_file_parses_at_the_declared_python_floor():
    """Each module parses with the grammar of the oldest Python that pyproject.toml admits.

    This checks grammar only (``except*`` is 3.11, say): a standard-library
    name newer than the floor, such as ``tomllib``, still passes.
    """
    # tomllib itself is 3.11+, so the floor is read by regex
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.MULTILINE)
    feature_version = (int(floor[1]), int(floor[2]))
    for path in sorted(Path(tfpainleve.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=feature_version)


def _blas_threads(env, first=""):
    code = (
        f"{first}import os, tfpainleve\n"
        "threads = [l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')]\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads[0])"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_import_starts_no_blas_thread_pool():
    # the only BLAS call is a small gemv, so neither OpenBLAS starts a pool;
    # a value the user set wins, and a process that loaded numpy first keeps its pool
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    assert _blas_threads(env) == ["1", "1"]
    assert _blas_threads(dict(env, OPENBLAS_NUM_THREADS="2"))[0] == "2"
    assert _blas_threads(env, first="import numpy\n")[0] == "None"
