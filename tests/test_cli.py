import importlib
import inspect
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpainleve import (ConvergenceError, bs_eigenvalue, build_corrections, eig_smallest,
                        from_solution, solve_ground_state, solve_hastings_mcleod)
from tfpainleve import cli, groundstate
from tfpainleve.cli import ConfigError, _DEFAULTS, load_config, main, validate_config
from tfpainleve.groundstate import default_grid, ground_state_ladder
from tfpainleve.spectrum import check_d1


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


@pytest.mark.parametrize(
    ("key", "function", "parameter"),
    [
        ("n_nodes", solve_hastings_mcleod, "n_nodes"),
        ("gs_tol", solve_ground_state, "tol"),
        ("nodes_per_layer", solve_ground_state, "nodes_per_layer"),
        ("nodes_per_layer", default_grid, "nodes_per_layer"),
        ("order", build_corrections, "order"),
    ],
)
def test_cli_default_is_the_library_default(key, function, parameter):
    # each default is written twice, in _DEFAULTS and in a signature
    assert _DEFAULTS[key] == inspect.signature(function).parameters[parameter].default


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "dimension = 3   # trailing comment\n"
        "eps = 0.2, 0.1\n"
        "bs_levels = 2,4\n"
        "gs_tol = 1e-9\n"
    )
    cfg = load_config(str(path))
    assert cfg["dimension"] == 3
    assert cfg["eps"] == (0.2, 0.1)
    assert cfg["bs_levels"] == (2, 4)
    assert cfg["gs_tol"] == 1e-9
    assert cfg["n_nodes"] == _DEFAULTS["n_nodes"]


@pytest.mark.parametrize("line", ["y_min = -20", "y_max = 40", "y_max = 10000"])
def test_layer_window_is_not_a_config_key(line, tmp_path, capsys):
    # the window is painleve.LAYER_WINDOW: a line naming it exits 1, even at its
    # value, and so does y_max = 10000, whose spacing 1.67 puts nu0(0) 1.3 % off
    cfg = tmp_path / "window.cfg"
    cfg.write_text(line + "\n")
    rc = main(["painleve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"configuration error: unknown configuration key {key!r}\n"
    assert not (tmp_path / "out").exists()


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


def test_config_file_with_a_utf8_byte_order_mark_loads(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"n_pairs = 2\neps = 0.1, 0.05\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(str(marked)) == load_config(str(plain))
    assert load_config(str(marked))["n_pairs"] == 2


def test_config_file_that_is_not_utf8_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"eps = 0.1\n# caf\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file: 'utf-8' codec"):
        load_config(str(cfg))
    rc = main(["painleve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("configuration error: cannot read config file: ")
    assert not (tmp_path / "out").exists()


def test_study_with_one_eps_is_exit_1_before_anything_is_written(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("eps = 0.1\n")
    rc = main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "configuration error: remainder study needs at least two eps values\n")
    assert not (tmp_path / "out").exists()
    # only the remainder stage of `tfp study` fits an order to the eps ladder
    validate_config(load_config(str(cfg)), "groundstate")


@pytest.mark.parametrize(
    ("key", "value", "fragment"),
    [
        ("dimension", 5, "dimension"),
        ("eps", (), "empty"),
        ("eps", (0.9,), "eps values"),
        ("order", 9, "order"),
        ("n_pairs", 9, "n_pairs must be between 1 and 8, got 9"),
        ("n_nodes", 100, "n_nodes"),
        ("gs_tol", 0.0, "positive"),
        ("nodes_per_layer", 5, "nodes_per_layer"),
        ("eps", (0.003,), "beyond the layer window end y = 40"),
        ("n_pairs", 0, "n_pairs"),
        ("bs_levels", (), "bs_levels"),
        ("bs_levels", (0, 2), "bs_levels"),
        ("order", 0, "order"),
        ("eps", (0.1, 0.1), "distinct"),
        ("bs_levels", (2, 1, 2), "distinct"),
        ("eps", (0.1, 0.1000001), "distinct 6-digit labels"),
        ("gs_tol", -1.0, "gs_tol must be positive, got -1.0"),
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
        ("dimension", 3, lambda sol, cset: check_d1(3)),
        ("eps", (), lambda sol, cset: ground_state_ladder(cset, ())),
        ("eps", (0.9,), lambda sol, cset: solve_ground_state(0.9, cset)),
        ("eps", (0.1, 0.1), lambda sol, cset: ground_state_ladder(cset, (0.1, 0.1))),
        ("order", 9, lambda sol, cset: build_corrections(sol, 1, order=9)),
        ("order", 0, lambda sol, cset: build_corrections(sol, 1, order=0)),
        ("n_nodes", 1999, lambda sol, cset: solve_hastings_mcleod(n_nodes=1999)),
        ("n_nodes", 100, lambda sol, cset: solve_hastings_mcleod(n_nodes=100)),
        ("nodes_per_layer", 5, lambda sol, cset: solve_ground_state(0.1, cset, nodes_per_layer=5)),
        ("eps", (0.003,), lambda sol, cset: solve_ground_state(0.003, cset)),
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
    # each message is the rule of the module that owns the key
    "line, message",
    [
        ("gs_tol = inf", "gs_tol must be finite, got inf"),
        ("eps = nan", "eps values must lie in (0, 0.5], got nan"),
        ("eps = 0.1, inf", "eps values must lie in (0, 0.5], got inf"),
    ],
    ids=["gs_tol = inf", "eps = nan", "eps = 0.1, inf"],
)
def test_main_non_finite_value_is_exit_1(line, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
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


def test_main_painleve(tmp_path, sol):
    out = tmp_path / "out"
    assert main(["painleve", "--out", str(out), "--plots"]) == 0
    csv = out / "painleve.csv"
    assert csv.read_text().splitlines()[0] == "y,nu0,dnu0,W0"
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape == (_DEFAULTS["n_nodes"], 4)
    summary = read_summary(out / "summary.txt")
    assert abs(float(summary["nu0_at_0"]) - 0.654029331355) < 1e-6
    assert float(summary["W_min"]) > 0.0
    assert summary["residual_max"] == f"{sol.residual_max:.1e}"
    svg = (out / "painleve.svg").read_text()
    assert svg.startswith("<svg") and "nu0" in svg


def test_main_groundstate_d2_honors_out_dir(tmp_path):
    target = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dimension = 2\neps = 0.1, 0.05\nnodes_per_layer = 24\n")
    assert main(["groundstate", "--config", str(cfg), "--out", str(target)]) == 0
    for eps in ("0.1", "0.05"):
        lines = (target / f"groundstate_d2_eps{eps}.csv").read_text().splitlines()
        assert lines[0] == "r,eta,composite,abs_diff"
    summary = read_summary(target / "summary.txt")
    assert float(summary["energy_eps0.1"]) < 0.0
    assert float(summary["residual_eps0.05"]) <= _DEFAULTS["gs_tol"]


def test_summary_residuals_have_two_digits(tmp_path, sol, profile_floor):
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
        bound = profile_floor(sol) if key == "residual_max" else _DEFAULTS["gs_tol"]
        assert float(value) <= bound, (key, value)


@pytest.mark.parametrize("n_nodes", [6001, 120001])
def test_painleve_summary_residual_is_at_the_rounding_floor(n_nodes, profile_floor, tmp_path):
    # the profile solve takes no tolerance: on every grid it ends at the kernel's
    # floor exit, ~eps_mach |nu| / h^2, so no floor-exit flag is written
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_nodes = {n_nodes}\n")
    assert main(["painleve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = read_summary(tmp_path / "out" / "summary.txt")
    assert "newton_floor_exit" not in summary
    assert float(summary["residual_max"]) <= profile_floor(solve_hastings_mcleod(n_nodes=n_nodes))


@pytest.mark.parametrize("gs_tol, flag", [(1e-8, "0"), (1e-13, "1")])
def test_groundstate_summary_flags_a_newton_floor_exit(gs_tol, flag, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"eps = 0.1\nnodes_per_layer = 160\ngs_tol = {gs_tol}\n")
    assert main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = read_summary(tmp_path / "out" / "summary.txt")
    assert summary["newton_floor_exit_eps0.1"] == flag
    assert (float(summary["residual_eps0.1"]) > gs_tol) == (flag == "1")


def test_painleve_reports_a_failed_well_certification_under_its_stage(
        tmp_path, capsys, monkeypatch):
    # the profile solves, but the certification of W0's well fails
    def no_well(sol):
        raise ValueError("potential has no interior minimum on the certified range")

    monkeypatch.setattr(cli, "from_solution", no_well)
    assert main(["painleve", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "stage painleve failed: potential has no interior minimum on the certified range\n")
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_groundstate_plots_leave_the_data_files_alone(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dimension = 1\nn_nodes = 2001\neps = 0.1, 0.05\n")
    plain, plotted = tmp_path / "plain", tmp_path / "plotted"
    assert main(["groundstate", "--config", str(cfg), "--out", str(plain)]) == 0
    assert main(["groundstate", "--config", str(cfg), "--out", str(plotted), "--plots"]) == 0
    svg = (plotted / "groundstate.svg").read_text()
    assert svg.count("<polyline ") == 2
    assert ">eta eps=0.1</text>" in svg and ">eta eps=0.05</text>" in svg
    names = sorted(p.name for p in plain.iterdir())
    assert names == ["groundstate_d1_eps0.05.csv", "groundstate_d1_eps0.1.csv", "summary.txt"]
    assert sorted(p.name for p in plotted.iterdir()) == sorted([*names, "groundstate.svg"])
    for name in names:
        assert (plotted / name).read_bytes() == (plain / name).read_bytes(), name


@pytest.mark.parametrize(("argv", "fragment"), [
    ([], "required: command"),
    (["study", "--bogus"], "unrecognized arguments: --bogus"),
    (["nosuch"], "invalid choice"),
    (["study", "--config"], "--config: expected one argument"),
])
def test_usage_error_is_exit_1(argv, fragment, tmp_path, capsys, monkeypatch):
    # a usage error is a configuration error: exit 1, never argparse's SystemExit(2)
    messages = []
    error = cli._Parser.error

    def spy(self, message):
        messages.append(message)
        error(self, message)

    monkeypatch.setattr(cli._Parser, "error", spy)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tfp")
    assert len(messages) == 1 and fragment in messages[0]
    assert err.endswith(f"configuration error: {messages[0]}\n")
    assert not (tmp_path / "tfp_out").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tfp study")


_SVG = "{http://www.w3.org/2000/svg}"


def _svg_ticks_and_lines(path):
    """The four tick labels (x0, x1, y0, y1) and each polyline's points as (x, y) pairs."""
    root = ET.parse(path).getroot()
    ticks = [t.text for t in root.findall(f"{_SVG}text")[-4:]]
    lines = [[tuple(map(float, p.split(","))) for p in line.get("points").split()]
             for line in root.findall(f"{_SVG}polyline")]
    return ticks, lines


def test_one_eps_spectrum_plot_widens_its_x_axis(tmp_path):
    # every series shares the one eps, so the x range is one point, widened by 0.5
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--plots"]) == 0
    ticks, lines = _svg_ticks_and_lines(out / "spectrum.svg")
    assert ticks[:2] == ["-0.43", "0.63"]
    assert len(lines) == 6 and all(x == 340.0 for line in lines for x, _ in line)


def test_svg_plot_widens_a_constant_y_axis_and_drops_an_empty_series(tmp_path):
    path = tmp_path / "flat.svg"
    cli._svg_plot(path, "flat", [("flat", [1.0, 2.0, 3.0], [2.0, 2.0, 2.0]),
                                 ("void", [np.nan, 1.0], [1.0, np.inf])])
    ticks, lines = _svg_ticks_and_lines(path)
    # y: 2 +- 0.5, padded by 5 %; x: 1 to 3, padded by 3 %
    assert ticks == ["0.94", "3.06", "1.45", "2.55"]
    assert lines == [[(75.85, 240.0), (340.0, 240.0), (604.15, 240.0)]]


def test_console_script_is_cli_main(tmp_path):
    # the installed `tfp` command resolves the [project.scripts] entry, not this import path
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, attr = re.search(r'^\[project\.scripts\]\ntfp = "([\w.]+):(\w+)"$', text,
                             flags=re.MULTILINE).groups()
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main
    rc = entry(["painleve", "--config", str(tmp_path / "missing.cfg"),
                "--out", str(tmp_path / "out")])
    assert type(rc) is int and rc == 1
    assert not (tmp_path / "out").exists()


def test_groundstate_solve_failure_keeps_the_earlier_csvs(tmp_path, capsys, monkeypatch):
    real = groundstate.solve_ground_state

    def fail_second(eps, cset, **kwargs):
        if eps < 0.1:
            raise ConvergenceError(f"no state at eps={eps:g}")
        return real(eps, cset, **kwargs)

    monkeypatch.setattr(groundstate, "solve_ground_state", fail_second)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1, 0.05\nnodes_per_layer = 24\n")
    out = tmp_path / "out"
    assert main(["groundstate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "stage groundstate failed: no state at eps=0.05" in capsys.readouterr().err
    assert (out / "groundstate_d1_eps0.1.csv").is_file()
    assert not (out / "groundstate_d1_eps0.05.csv").exists()
    assert not (out / "summary.txt").exists()


def test_groundstate_write_failure_is_stage_output(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "groundstate_d1_eps0.05.csv").mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1, 0.05\nnodes_per_layer = 24\n")
    assert main(["groundstate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "stage output failed" in capsys.readouterr().err
    assert (out / "groundstate_d1_eps0.1.csv").is_file()


def test_summary_is_written_last(tmp_path, capsys):
    # a plot that cannot be written fails the run before summary.txt, which marks a finished run
    out = tmp_path / "out"
    (out / "groundstate.svg").mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\nnodes_per_layer = 24\nn_nodes = 2001\n")
    assert main(["groundstate", "--config", str(cfg), "--out", str(out), "--plots"]) == 2
    assert "stage output failed" in capsys.readouterr().err
    assert (out / "groundstate_d1_eps0.1.csv").is_file()
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_solves_the_profile_once(command, tmp_path, monkeypatch):
    calls = []

    def spy(n_nodes):
        calls.append(n_nodes)
        return solve_hastings_mcleod(n_nodes)

    monkeypatch.setattr(cli, "solve_hastings_mcleod", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1, 0.05\nn_pairs = 1\nnodes_per_layer = 24\nn_nodes = 2001\n"
                   "bs_levels = 1, 2\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [2001]
    assert (tmp_path / "out" / "summary.txt").is_file()


def test_main_stage_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    def fail(W, levels):
        raise ConvergenceError("Bohr-Sommerfeld solve left 1 of 8 open")

    monkeypatch.setattr(cli, "bs_eigenvalue", fail)
    rc = main(["bs", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "stage bs failed: Bohr-Sommerfeld solve left 1 of 8 open\n"


def test_main_bs_tabulates_every_level_under_the_certified_range(tmp_path, capsys):
    # levels 12-14 fit under the top of the default window; 15 does not
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bs_levels = 1,12,13,14\n")
    assert main(["bs", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "bs.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [1.0, 12.0, 13.0, 14.0]
    cfg.write_text("bs_levels = 15\n")
    assert main(["bs", "--config", str(cfg), "--out", str(tmp_path / "out15")]) == 1
    assert "at most 14" in capsys.readouterr().err
    assert not (tmp_path / "out15").exists()


def test_study_level_above_the_window_cap_is_exit_1_before_anything_is_written(
        tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bs_levels = 1, 15\neps = 0.1, 0.05\n")
    assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: bs_levels entries must be at most 14, the last level under "
        "W0's certified range on the layer window, got 15\n")
    assert not (tmp_path / "out").exists()
    # the other commands solve M0 for 15 eigenvalues and tabulate no Bohr-Sommerfeld level
    for other in ("painleve", "groundstate", "spectrum"):
        validate_config(load_config(str(cfg)), other)


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


def test_remainder_stage_ignores_gs_tol_and_nodes_per_layer(tmp_path):
    # the remainder stage solves its own ladder (1e-10, 80 nodes per layer); scaling reads both keys
    outs = {}
    for name, keys in (("default", ""), ("coarse", "nodes_per_layer = 24\ngs_tol = 1e-6\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("eps = 0.1, 0.05\nn_nodes = 3001\n" + keys)
        outs[name] = tmp_path / name
        assert main(["study", "--config", str(cfg), "--out", str(outs[name])]) == 0
    default, coarse = outs["default"], outs["coarse"]
    assert (coarse / "remainder.csv").read_bytes() == (default / "remainder.csv").read_bytes()
    fit = [read_summary(out / "summary.txt")["remainder_fit_order"] for out in (default, coarse)]
    assert fit[0] == fit[1]
    assert (coarse / "scaling.csv").read_bytes() != (default / "scaling.csv").read_bytes()


def test_spectrum_and_study_write_the_same_mu_bytes(tmp_path):
    # mu_1's last bits depend on how many M0 eigenvalues are solved for, so
    # spectrum (n_pairs = 1) and study (top level 4) must ask for the same number
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1, 0.05\nn_pairs = 1\nnodes_per_layer = 24\nbs_levels = 1, 2, 3, 4\n")
    mu_1 = {}
    for command in ("spectrum", "study"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        mu_1[command] = read_summary(out / "summary.txt")["mu_1"]
    assert mu_1["spectrum"] == mu_1["study"]


@pytest.mark.parametrize(("command", "levels", "k"),
                         [("spectrum", "1, 2", 8), ("bs", "1, 2", 8), ("study", "3, 10", 10)])
def test_every_command_solves_m0_for_k_max_of_8_and_the_top_level(
        command, levels, k, tmp_path, monkeypatch):
    asked = []

    def spy(op, count, label="generic"):
        if label == "M0":
            asked.append(count)
        return eig_smallest(op, count, label=label)

    monkeypatch.setattr(cli, "eig_smallest", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"eps = 0.1, 0.05\nn_pairs = 1\nnodes_per_layer = 24\nn_nodes = 2001\n"
                   f"bs_levels = {levels}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert asked == [k]


def test_main_study_d3_writes_the_d1_spectrum_tables(tmp_path):
    # the scaling and Bohr-Sommerfeld tables are d = 1 problems in every dimension
    outs = {}
    for d in (3, 1):
        cfg = tmp_path / f"d{d}.cfg"
        cfg.write_text(f"dimension = {d}\neps = 0.1, 0.05\nn_nodes = 2001\nn_pairs = 1\n"
                       "bs_levels = 1, 2\n")
        outs[d] = tmp_path / f"d{d}"
        assert main(["study", "--config", str(cfg), "--out", str(outs[d]), "--plots"]) == 0
    names = sorted(p.name for p in outs[3].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) == sorted([
        "painleve.csv", "corrections.csv", "remainder.csv", "scaling.csv",
        "bs.csv", "summary.txt", "remainder.svg", "scaling.svg",
    ])
    for name in ("scaling.csv", "bs.csv"):
        assert (outs[3] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    s3, s1 = (read_summary(outs[d] / "summary.txt") for d in (3, 1))
    assert s3.keys() == s1.keys()
    assert {key for key in s3 if s3[key] != s1[key]} == {"dimension", "remainder_fit_order"}


def test_main_outputs_are_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "eps = 0.1, 0.05\n"
        "n_pairs = 2\n"
        "nodes_per_layer = 24\n"
        "n_nodes = 3001\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(
            ((out / "spectrum.csv").read_bytes(), (out / "summary.txt").read_bytes())
        )
    assert outputs[0] == outputs[1]
