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

import tfpainleve

_HEAVY = ("scipy.interpolate", "scipy.optimize", "scipy.special")
_LINALG_INIT = ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma", "numpy.random")


def test_cli_import_loads_no_heavy_scipy_module():
    src = str(Path(tfpainleve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # scipy.linalg imported afterwards, as the test oracles do, must still work
    code = (
        "import sys, tfpainleve.cli; print(' '.join(sorted(sys.modules)))\n"
        "import scipy.linalg; scipy.linalg.lapack.dgtsv"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert [m for m in _LINALG_INIT if m in loaded] == []
    assert [m for m in _HEAVY if m in loaded] == []


def test_no_source_file_names_scipy_interpolate():
    # a deferred import inside a function would not show in the import above
    root = Path(tfpainleve.__file__).parent
    named = [p.name for p in root.rglob("*.py") if "scipy.interpolate" in p.read_text()]
    assert named == []
