"""The runtime needs numpy and scipy's LAPACK extension only.

scipy.interpolate alone pulls in scipy.optimize, scipy.special, scipy.fft and
scipy.spatial, about a third of a cold ``tfp`` start.  The package
``__init__`` of scipy.linalg clones the numpy namespace and so imports
numpy.f2py, numpy.testing, numpy.ma and numpy.random, about half of what is
left; ``grids`` loads the LAPACK extension from its file instead.
"""

import os
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


def test_no_source_file_names_scipy_interpolate():
    # a deferred import inside a function would not show in the import above
    root = Path(tfpainleve.__file__).parent
    named = [p.name for p in root.rglob("*.py") if "scipy.interpolate" in p.read_text()]
    assert named == []
