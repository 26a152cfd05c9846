"""README.md stays true: its library example runs, and its config table names every key."""

import re
from pathlib import Path

import pytest

from tfpainleve import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    err, mu1 = (float(v) for v in capsys.readouterr().out.split())
    # the comment on the print line: ~9.4e-5, 2.410531...
    assert err == pytest.approx(9.4e-5, rel=0.01)
    assert mu1 == pytest.approx(2.410531, abs=1e-6)


def test_readme_config_table_names_every_key():
    text = README.read_text().split("Keys and defaults:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(cli._DEFAULTS)
