"""The library example in README.md runs and prints what its comment says."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    err, mu1 = (float(v) for v in capsys.readouterr().out.split())
    # the comment on the print line: ~9.4e-5, 2.410531...
    assert err == pytest.approx(9.4e-5, rel=0.01)
    assert mu1 == pytest.approx(2.410531, abs=1e-6)
