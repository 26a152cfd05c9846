"""The CI workflow stays in step with the repository: its Python and dependency floors,
its smoke run and its test command.  The workflow is read as text: PyYAML is not a dev
dependency."""

import re
from pathlib import Path

from tfpainleve import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _step_run(name_start: str) -> str:
    """The ``run`` block of the step whose name starts with ``name_start``."""
    steps = re.split(r"^ *- (?=name:|uses:)", WORKFLOW.read_text(), flags=re.MULTILINE)
    found = [s for s in steps if s.startswith(f"name: {name_start}")]
    assert len(found) == 1, name_start
    return found[0].split("run:", 1)[1]


def test_lowest_matrix_python_is_the_declared_floor():
    floor = re.search(r'^requires-python\s*=\s*">=(\d+\.\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)[1]
    matrix = re.search(r"^\s*python-version:\s*\[(.*)\]", WORKFLOW.read_text(), re.MULTILINE)[1]
    versions = [tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(",")]
    assert min(versions) == tuple(map(int, floor.split(".")))


def test_smoke_step_runs_every_command():
    ran = re.findall(r"^\s*tfp (\w+) --plots ", _step_run("Console-script smoke run"),
                     re.MULTILINE)
    assert sorted(ran) == sorted(cli._COMMANDS)


def test_pytest_step_runs_the_tier1_command():
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.*)`$", (ROOT / "ROADMAP.md").read_text(),
                      re.MULTILINE)[1]
    assert _step_run("Tier-1 tests").strip() == tier1


def test_floor_job_installs_the_declared_dependency_floors():
    declared = dict(re.findall(r'^\s*"(numpy|scipy)>=([\d.]+)",$',
                               (ROOT / "pyproject.toml").read_text(), re.MULTILINE))
    pinned = dict(re.findall(r'"(numpy|scipy)==([\d.]+)\.\*"',
                             _step_run("Install the declared numpy and scipy floors")))
    assert set(declared) == {"numpy", "scipy"} and pinned == declared
    # the floors go in before the package, whose install then keeps them
    text = WORKFLOW.read_text()
    assert text.index("numpy==") < text.index('pip install -e ".[dev]"')


def test_benchmark_step_checks_seeds_0_and_1():
    # seed 0 keeps the reference eps; only a jittered seed exercises the {eps:g} labels
    run = _step_run("Benchmark smoke run")
    seeds = re.findall(r"^\s*python3 perfbench/run\.py --workload all --seed (\d+) ", run,
                       re.MULTILINE)
    checks = re.findall(r'perfbench_(\d+)\.out" \| python3 -c .*\["correct"\] is True', run)
    assert seeds == ["0", "1"] and checks == seeds
