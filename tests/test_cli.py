import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpainleve import (bs_eigenvalue, build_corrections, from_solution, scaling_study,
                        solve_ground_state, solve_hastings_mcleod)
from tfpainleve.cli import ConfigError, _DEFAULTS, load_config, main, validate_config
from tfpainleve.groundstate import ground_state_ladder


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, val = line.split("=", 1)
        out[key] = val
    return out


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg == _DEFAULTS
    assert cfg is not _DEFAULTS  # caller may mutate its copy


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "dimension = 3   # trailing comment\n"
        "eps = 0.2, 0.1\n"
        "bs_levels = 2,4\n"
        "tol = 1e-9\n"
        "out_dir = results\n"
    )
    cfg = load_config(str(path))
    assert cfg["dimension"] == 3
    assert cfg["eps"] == (0.2, 0.1)
    assert cfg["bs_levels"] == (2, 4)
    assert cfg["tol"] == 1e-9
    assert cfg["out_dir"] == "results"
    assert cfg["n_nodes"] == _DEFAULTS["n_nodes"]


def test_load_config_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("spacing = 3\n")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(str(bad_key))
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("n_nodes = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(str(bad_value))
    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("dimension\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(str(bad_line))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"))
    repeated = tmp_path / "d.cfg"
    repeated.write_text("eps = 0.1\norder = 3\neps = 0.05, 0.025\n")
    with pytest.raises(ConfigError, match="'eps' is given twice, on lines 1 and 3"):
        load_config(str(repeated))


@pytest.mark.parametrize(
    ("key", "value", "fragment"),
    [
        ("dimension", 5, "dimension"),
        ("eps", (), "empty"),
        ("eps", (0.9,), "eps values"),
        ("order", 9, "order"),
        ("y_max", 20.0, "cover"),
        ("n_nodes", 100, "n_nodes"),
        ("tol", 0.0, "positive"),
        ("nodes_per_layer", 5, "nodes_per_layer"),
        ("r_max", 1.0, "r_max"),
        ("n_pairs", 0, "n_pairs"),
        ("bs_levels", (), "bs_levels"),
        ("bs_levels", (0, 2), "bs_levels"),
        ("order", 0, "order"),
        ("eps", (0.1, 0.1), "distinct"),
        ("bs_levels", (2, 1, 2), "distinct"),
        ("eps", (0.1, 0.1000001), "distinct 6-digit labels"),
    ],
)
def test_validate_config_rejects(key, value, fragment):
    cfg = dict(_DEFAULTS)
    cfg[key] = value
    with pytest.raises(ConfigError, match=fragment):
        validate_config(cfg)


@pytest.mark.parametrize(
    ("key", "value", "solve"),
    [
        ("dimension", 5, lambda sol, cset: build_corrections(sol, 5)),
        ("dimension", 3, lambda sol, cset: scaling_study(build_corrections(sol, 3), (0.1,), [])),
        ("eps", (), lambda sol, cset: ground_state_ladder(cset, ())),
        ("eps", (0.9,), lambda sol, cset: solve_ground_state(0.9, cset)),
        ("eps", (0.1, 0.1), lambda sol, cset: ground_state_ladder(cset, (0.1, 0.1))),
        ("order", 9, lambda sol, cset: build_corrections(sol, 1, order=9)),
        ("order", 0, lambda sol, cset: build_corrections(sol, 1, order=0)),
        ("y_max", 20.0, lambda sol, cset: solve_hastings_mcleod(y_max=20.0)),
        ("n_nodes", 100, lambda sol, cset: solve_hastings_mcleod(n_nodes=100)),
        ("nodes_per_layer", 5, lambda sol, cset: solve_ground_state(0.1, cset, nodes_per_layer=5)),
        ("r_max", 1.0, lambda sol, cset: solve_ground_state(0.1, cset, r_max=1.0)),
        ("bs_levels", (0, 2), lambda sol, cset: bs_eigenvalue(from_solution(sol), (0, 2))),
    ],
)
def test_config_error_is_the_module_rule(key, value, solve, sol, cset1, tmp_path, capsys):
    # each rule has one owner: the CLI prints the solver's own message
    with pytest.raises(ValueError) as raised:
        solve(sol, cset1)
    text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {text}\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"configuration error: {raised.value}\n"
    assert not (tmp_path / "out").exists()


def test_groundstate_rejects_eps_times_dimension_at_least_one(tmp_path, capsys):
    # no positive d = 3 state exists for eps >= 1/3: the solve would write rounding noise
    cfg = tmp_path / "d3.cfg"
    cfg.write_text("dimension = 3\neps = 0.1, 0.34\n")
    rc = main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "eps * dimension" in err
    assert not (tmp_path / "out").exists()


def test_spectrum_rejects_dimension_other_than_one(tmp_path, capsys):
    # the L+ spectrum is assembled in d = 1 only; it must not write the d = 1 table for d = 3
    cfg = tmp_path / "d3.cfg"
    cfg.write_text("dimension = 3\neps = 0.1\nn_pairs = 1\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "dimension" in err and "d = 1 only" in err
    assert not (tmp_path / "out").exists()


def test_main_bad_config_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps = 0.9\n")
    rc = main(["painleve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["gs_tol = inf", "y_min = nan", "y_max = inf", "r_max = inf", "tol = inf"]
)
def test_main_non_finite_value_is_exit_1(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and line.split(" = ")[0] in err
    assert not (tmp_path / "out").exists()


_KEYS = st.sampled_from(sorted(_DEFAULTS) + ["spacing"])
_VALUES = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "0", "-1", "1e-10", "3", "0.1, 0.05", ""]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(st.characters(codec="ascii", exclude_characters="\r\n"), max_size=12),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_KEYS, _VALUES), max_size=4))
def test_config_fuzz_rejects_or_yields_finite_floats(tmp_path_factory, pairs):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in pairs))
    try:
        cfg = load_config(str(path))
        validate_config(cfg)
    except ConfigError:
        return
    for value in cfg.values():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float):
                assert math.isfinite(v), cfg


def test_main_painleve(tmp_path):
    out = tmp_path / "out"
    assert main(["painleve", "--out", str(out), "--plots"]) == 0
    csv = out / "painleve.csv"
    assert csv.read_text().splitlines()[0] == "y,nu0,dnu0,W0"
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape == (_DEFAULTS["n_nodes"], 4)
    summary = read_summary(out / "summary.txt")
    assert abs(float(summary["nu0_at_0"]) - 0.654029331355) < 1e-6
    assert float(summary["W_min"]) > 0.0
    assert float(summary["residual_max"]) <= _DEFAULTS["tol"]
    svg = (out / "painleve.svg").read_text()
    assert svg.startswith("<svg") and "nu0" in svg


def test_main_groundstate_d2_honors_out_dir(tmp_path):
    target = tmp_path / "from_config"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dimension = 2\n"
        "eps = 0.1, 0.05\n"
        "nodes_per_layer = 24\n"
        f"out_dir = {target}\n"
    )
    rc = main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "ignored")])
    assert rc == 0
    assert not (tmp_path / "ignored").exists()
    for eps in ("0.1", "0.05"):
        lines = (target / f"groundstate_d2_eps{eps}.csv").read_text().splitlines()
        assert lines[0] == "r,eta,composite,abs_diff"
    summary = read_summary(target / "summary.txt")
    assert float(summary["energy_eps0.1"]) < 0.0
    assert float(summary["residual_eps0.05"]) <= _DEFAULTS["gs_tol"]


def test_summary_residuals_have_two_digits(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1, 0.05\nnodes_per_layer = 24\n")
    residuals = {}
    for command in ("painleve", "groundstate"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        residuals.update({k: v for k, v in summary.items() if k.startswith("residual")})
    assert sorted(residuals) == ["residual_eps0.05", "residual_eps0.1", "residual_max"]
    for key, value in residuals.items():
        assert re.fullmatch(r"\d\.\de[+-]\d+", value), (key, value)
        tol = _DEFAULTS["tol"] if key == "residual_max" else _DEFAULTS["gs_tol"]
        assert float(value) <= tol, (key, value)


def test_main_stage_failure_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bs_levels = 75\n")  # action bracket leaves the certified range
    rc = main(["bs", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "stage bs failed" in capsys.readouterr().err


def test_main_bs_tabulates_every_level_under_the_certified_range(tmp_path, capsys):
    # levels 12-14 fit under the top of the default window; 15 does not
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bs_levels = 1,12,13,14\n")
    assert main(["bs", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "bs.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [1.0, 12.0, 13.0, 14.0]
    cfg.write_text("bs_levels = 15\n")
    assert main(["bs", "--config", str(cfg), "--out", str(tmp_path / "out15")]) == 2
    assert "bracket failure: level 15 " in capsys.readouterr().err


def test_main_study_write_failure_is_stage_output(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "painleve.csv").mkdir(parents=True)
    assert main(["study", "--out", str(out)]) == 2
    assert "stage output failed" in capsys.readouterr().err
    assert not (out / "painleve.csv.tmp").exists()


@pytest.fixture(scope="module")
def study_small(tmp_path_factory):
    """Config file and --plots output directory of a small `tfp study` run."""
    root = tmp_path_factory.mktemp("study_small")
    cfg = root / "run.cfg"
    cfg.write_text(
        "eps = 0.1, 0.05\n"
        "n_pairs = 2\n"
        "nodes_per_layer = 24\n"
        "bs_levels = 1, 2\n"
        "n_nodes = 3001\n"
        "y_min = -18\n"
        "y_max = 32\n"
    )
    out = root / "study"
    assert main(["study", "--config", str(cfg), "--out", str(out), "--plots"]) == 0
    return cfg, out


def test_main_study_small(study_small):
    _, out = study_small
    for name in (
        "painleve.csv", "corrections.csv", "remainder.csv", "scaling.csv",
        "bs.csv", "summary.txt", "remainder.svg", "scaling.svg",
    ):
        assert (out / name).exists(), name
    summary = read_summary(out / "summary.txt")
    assert abs(float(summary["remainder_fit_order"]) - 2.0) < 0.6
    assert abs(float(summary["mu_1"]) - 2.410531) < 1e-3


def test_main_bs_and_spectrum_match_study(study_small, tmp_path):
    cfg, study = study_small
    out = tmp_path / "out"
    for command in ("bs", "spectrum"):
        assert main([command, "--config", str(cfg), "--out", str(out), "--plots"]) == 0
    assert (out / "bs.csv").read_bytes() == (study / "bs.csv").read_bytes()
    assert (out / "spectrum.csv").read_bytes() == (study / "scaling.csv").read_bytes()
    for name in ("bs.svg", "spectrum.svg"):
        assert (out / name).read_text().startswith("<svg"), name


def test_main_outputs_are_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "eps = 0.1, 0.05\n"
        "n_pairs = 2\n"
        "nodes_per_layer = 24\n"
        "n_nodes = 3001\n"
        "y_min = -18\n"
        "y_max = 32\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(
            ((out / "spectrum.csv").read_bytes(), (out / "summary.txt").read_bytes())
        )
    assert outputs[0] == outputs[1]
