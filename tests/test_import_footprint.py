"""The runtime needs numpy and scipy.linalg only.

scipy.interpolate alone pulls in scipy.optimize, scipy.special, scipy.fft and
scipy.spatial, about a third of a cold ``tfp`` start.
"""

import os
import subprocess
import sys
from pathlib import Path

import tfpainleve

_HEAVY = ("scipy.interpolate", "scipy.optimize", "scipy.special")


def test_cli_import_loads_no_heavy_scipy_module():
    src = str(Path(tfpainleve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, tfpainleve.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "scipy.linalg" in loaded
    assert [m for m in _HEAVY if m in loaded] == []


def test_no_source_file_names_scipy_interpolate():
    # a deferred import inside a function would not show in the import above
    root = Path(tfpainleve.__file__).parent
    named = [p.name for p in root.rglob("*.py") if "scipy.interpolate" in p.read_text()]
    assert named == []
