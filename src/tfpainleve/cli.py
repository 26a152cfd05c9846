"""Command-line harness: every study as a subcommand with CSV and SVG output.

Subcommands: painleve | groundstate | spectrum | bs | study.  Configuration is
a key=value text file (--config); results land in --out as CSV files with
fixed column schemas, --plots adds minimal SVG line plots, and summary.txt,
written last, marks a finished run.  Studies run one eps at a time in one
thread, so output is byte-identical for a given config.  Exit codes: 0
success, 1 bad usage or configuration, 2 first failing stage (named on stderr).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from ._io import format_float, write_csv, write_lines
from .corrections import build_corrections, check_expansion
from .grids import check_positive
from .groundstate import (check_ground_state, check_remainder_eps, energy, eps_ladder,
                          ground_state_ladder, remainder_study)
from .painleve import assemble_M0, check_window, solve_hastings_mcleod
from .semiclassics import bs_eigenvalue, check_layer_levels, check_levels, from_solution
from .spectrum import check_d1, eig_smallest, scaling_study


class ConfigError(ValueError):
    """Invalid configuration: bad usage, unknown key, bad value, or failed precondition."""


class _Parser(argparse.ArgumentParser):
    """A usage error prints the usage line and raises ConfigError; subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


_DEFAULTS = {
    "dimension": 1,
    "eps": (0.1, 0.05, 0.025),
    "order": 2,
    "n_nodes": 6001,
    "gs_tol": 1e-8,
    "nodes_per_layer": 40,
    "n_pairs": 3,
    "bs_levels": (1, 2, 3, 4, 5, 6, 7, 8),
}
# the n_pairs cap; every command solves M0 for at least this many eigenvalues
_MAX_PAIRS = 8


def _parse_value(key: str, raw: str):
    """``raw`` as the type of the key's default: a tuple is a comma list."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(p) for p in raw.split(",") if p.strip())
        return type(default)(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def load_config(path: str | None) -> dict:
    """Defaults overridden by key=value lines, each key at most once; '#' starts a comment."""
    cfg = dict(_DEFAULTS)
    if path is None:
        return cfg
    seen = {}
    try:
        # a leading byte-order mark is dropped here: the utf-8-sig codec is one more import
        with open(path, encoding="utf-8") as f:
            lines = f.read().removeprefix("\ufeff").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected key=value, got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in seen:
            raise ConfigError(f"key {key!r} is given twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        cfg[key] = _parse_value(key, raw)
    return cfg


def validate_config(cfg: dict, command: str | None = None) -> None:
    """Check every value up front: each module's own rule, then the rules of the CLI alone.

    A module rule's ValueError becomes a ConfigError with the same message.
    """
    try:
        check_expansion(cfg["dimension"], cfg["order"])
        if command == "spectrum":
            check_d1(cfg["dimension"])
        check_window(cfg["n_nodes"])
        for eps in eps_ladder(cfg["eps"]):
            check_ground_state(eps, cfg["dimension"], cfg["nodes_per_layer"])
        if command == "study":
            check_remainder_eps(cfg["eps"])
        check_levels(cfg["bs_levels"])
        if command in ("bs", "study"):
            check_layer_levels(cfg["bs_levels"])
        check_positive(cfg["gs_tol"], "gs_tol")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the labels name the per-eps CSV files and summary keys
    if len({f"{e:g}" for e in cfg["eps"]}) < len(cfg["eps"]):
        raise ConfigError(f"eps values must have distinct 6-digit labels, got {cfg['eps']}")
    if not 1 <= cfg["n_pairs"] <= _MAX_PAIRS:
        raise ConfigError(f"n_pairs must be between 1 and {_MAX_PAIRS}, got {cfg['n_pairs']}")
    if not cfg["bs_levels"] or len(set(cfg["bs_levels"])) < len(cfg["bs_levels"]):
        raise ConfigError(f"bs_levels must be non-empty and distinct, got {cfg['bs_levels']}")


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(path, title, series, log=False):
    """Minimal SVG polyline plot: axes box, series, text legend; ``log`` puts both axes on log10."""
    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 40, 40
    clean = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log:
            keep &= (xs > 0.0) & (ys > 0.0)
        xs, ys = xs[keep], ys[keep]
        if xs.size:
            clean.append((name, *((np.log10(xs), np.log10(ys)) if log else (xs, ys))))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    if clean:
        # one rule per axis: data range, widened if one point, padded, mapped onto pixels (y downward)
        ends, pixels = [], []
        for k, pad, lo, hi in ((1, 0.03, ml, width - mr), (2, 0.05, height - mb, mt)):
            v0 = min(float(c[k].min()) for c in clean)
            v1 = max(float(c[k].max()) for c in clean)
            if v1 == v0:
                v0, v1 = v0 - 0.5, v1 + 0.5
            v0, v1 = v0 - pad * (v1 - v0), v1 + pad * (v1 - v0)
            ends += [v0, v1]
            pixels.append([lo + (c[k] - v0) / (v1 - v0) * (hi - lo) for c in clean])
        for i, ((name, _, _), sx, sy) in enumerate(zip(clean, *pixels)):
            pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx, sy))
            color = _COLORS[i % len(_COLORS)]
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{width - mr - 10}" y="{mt + 18 + 16 * i}" text-anchor="end" '
                f'font-size="12" fill="{color}">{name}</text>'
            )
        x0, x1, y0, y1 = ends
        for val, tx, ty, anchor in ((x0, ml, height - mb + 18, "middle"),
                                    (x1, width - mr, height - mb + 18, "middle"),
                                    (y0, ml - 6, height - mb + 4, "end"), (y1, ml - 6, mt + 4, "end")):
            label = f"{10.0 ** val:.3g}" if log else f"{val:.3g}"
            parts.append(f'<text x="{tx}" y="{ty}" text-anchor="{anchor}" font-size="12">{label}</text>')
    parts.append("</svg>")
    write_lines(path, parts)


def _format_residual(value: float) -> str:
    # a final Newton residual is rounding noise: two digits say all of it
    return f"{value:.1e}"


class _Stages:
    """Runs named stages so a failure can be reported as 'stage X failed'.

    Once a stage returns, whatever runs until the next one (writing its
    results) is reported as stage "output".
    """

    def __init__(self):
        self.current = None

    def run(self, name, fn):
        self.current = name
        result = fn()
        self.current = "output"
        return result


def cmd_painleve(cfg, sol, out, plots, stages) -> list:
    sol.to_csv(os.path.join(out, "painleve.csv"))
    # W0's well is certified on the profile, so a failure there is the profile stage's
    W = stages.run("painleve", lambda: from_solution(sol))
    if plots:
        y = sol.grid.nodes
        _svg_plot(
            os.path.join(out, "painleve.svg"),
            "Connection profile and layer potential",
            [("nu0", y, sol.nu0), ("W0", y, sol.w0)],
        )
    return [
        ("nu0_at_0", float(sol.interp_nu0(0.0))),
        ("W_min", W.well_value),
        ("W_min_location", W.well_location),
        ("residual_max", _format_residual(sol.residual_max)),
        ("newton_iterations", sol.newton_iterations),
    ]


def _ladder(cfg, cset):
    """The config's ground states of ``cset``, solved lazily, eps descending."""
    return ground_state_ladder(cset, cfg["eps"], tol=cfg["gs_tol"],
                               nodes_per_layer=cfg["nodes_per_layer"])


def cmd_groundstate(cfg, sol, out, plots, stages) -> list:
    d = cfg["dimension"]
    cset = stages.run("corrections", lambda: build_corrections(sol, d, order=cfg["order"]))
    states = _ladder(cfg, cset)
    # each state's CSV is written as it is solved; only its summary and plot data stay
    summary, series = [], []
    while (gs := stages.run("groundstate", lambda: next(states, None))) is not None:
        gs.to_csv(os.path.join(out, f"groundstate_d{d}_eps{gs.eps:g}.csv"))
        summary.append((f"energy_eps{gs.eps:g}", energy(gs)))
        summary.append((f"residual_eps{gs.eps:g}", _format_residual(gs.residual_max)))
        # damped_newton returns only at residual <= gs_tol or at its rounding floor above it
        summary.append((f"newton_floor_exit_eps{gs.eps:g}", int(gs.residual_max > cfg["gs_tol"])))
        if plots:
            series.append((f"eta eps={gs.eps:g}", gs.grid.nodes, gs.eta))
    if plots:
        _svg_plot(os.path.join(out, "groundstate.svg"), f"Ground states, d={d}", series)
    return summary


def _m0_eigenvalues(sol, cfg):
    """The k = max(_MAX_PAIRS, top level) smallest M0 eigenvalues, the same k in every command.

    mu_n's last bits (about 1e-13 relative) depend on k.
    """
    k = max(_MAX_PAIRS, max(cfg["bs_levels"]))
    return eig_smallest(assemble_M0(sol), k, label="M0").eigenvalues


def _bs_table(sol, cfg, mu, out, stages):
    """Bohr-Sommerfeld energies of the sorted ``bs_levels`` against M0's ``mu``, into bs.csv.

    Runs the quadrature as stage "bs"; returns (levels, mu_bs, mu_m0, relative error).
    """
    levels = tuple(sorted(cfg["bs_levels"]))
    mu_bs = stages.run("bs", lambda: bs_eigenvalue(from_solution(sol), levels))
    ns = np.asarray(levels)
    mu_m0 = mu[ns - 1]
    rel = np.abs(mu_bs - mu_m0) / mu_m0
    write_csv(
        os.path.join(out, "bs.csv"),
        ["n", "mu_bs", "mu_m0", "rel_err"],
        [ns.astype(float), mu_bs, mu_m0, rel],
    )
    return levels, mu_bs, mu_m0, rel


def _scaling_plot(path, table, n_pairs) -> None:
    series = []
    for i in range(n_pairs):
        pick = table.n == i + 1
        series.append((f"scaled odd n={i + 1}", table.eps[pick], table.scaled_odd[pick]))
        series.append((f"scaled even n={i + 1}", table.eps[pick], table.scaled_even[pick]))
    _svg_plot(path, "Scaled eigenvalues vs eps", series)


def _scaling(cfg, sol, cset, stages):
    """Stage "scaling": (the M0 eigenvalues mu, the scaled L+ table of ``cset``)."""
    def run():
        mu = _m0_eigenvalues(sol, cfg)
        return mu, scaling_study(_ladder(cfg, cset), mu, cfg["n_pairs"])

    return stages.run("scaling", run)


def cmd_spectrum(cfg, sol, out, plots, stages) -> list:
    cset = stages.run("corrections", lambda: build_corrections(sol, 1, order=cfg["order"]))
    mu, table = _scaling(cfg, sol, cset, stages)
    table.to_csv(os.path.join(out, "spectrum.csv"))
    if plots:
        _scaling_plot(os.path.join(out, "spectrum.svg"), table, cfg["n_pairs"])
    return [(f"mu_{i + 1}", float(m)) for i, m in enumerate(mu[:cfg["n_pairs"]])]


def cmd_bs(cfg, sol, out, plots, stages) -> list:
    mu = stages.run("bs", lambda: _m0_eigenvalues(sol, cfg))
    levels, mu_bs, mu_m0, rel = _bs_table(sol, cfg, mu, out, stages)
    if plots:
        ns = np.asarray(levels, dtype=float)
        _svg_plot(
            os.path.join(out, "bs.svg"),
            "Bohr-Sommerfeld vs layer operator",
            [("mu_bs", ns, mu_bs), ("mu_m0", ns, mu_m0)],
        )
    return [("max_rel_err", float(rel.max()))]


def cmd_study(cfg, sol, out, plots, stages) -> list:
    d = cfg["dimension"]
    sol.to_csv(os.path.join(out, "painleve.csv"))
    order = cfg["order"]
    cset = stages.run("corrections", lambda: build_corrections(sol, d, order=order))
    cset.to_csv(os.path.join(out, "corrections.csv"))
    # not the config's gs_tol and nodes_per_layer: err must measure the composite, not the solver
    remainder = stages.run("remainder", lambda: remainder_study(
        ground_state_ladder(cset, cfg["eps"], tol=1e-10, nodes_per_layer=80)))
    remainder.to_csv(os.path.join(out, "remainder.csv"))
    cset1 = cset if d == 1 else stages.run(
        "corrections", lambda: build_corrections(sol, 1, order=order)
    )
    # one M0 solve serves both the scaling table and the Bohr-Sommerfeld table
    mu, scaling = _scaling(cfg, sol, cset1, stages)
    scaling.to_csv(os.path.join(out, "scaling.csv"))
    _bs_table(sol, cfg, mu, out, stages)
    if plots:
        _svg_plot(
            os.path.join(out, "remainder.svg"),
            f"Composite remainder, d={d}, N={order}",
            [("sup error", remainder.eps, remainder.err)],
            log=True,
        )
        _scaling_plot(os.path.join(out, "scaling.svg"), scaling, cfg["n_pairs"])
    return [
        ("dimension", d),
        ("order", order),
        ("remainder_fit_order", remainder.fit_order),
        ("mu_1", float(scaling.mu[0])),
    ]


# each command takes the solved profile and returns its summary's (key, value) pairs
_COMMANDS = {
    "painleve": cmd_painleve,
    "groundstate": cmd_groundstate,
    "spectrum": cmd_spectrum,
    "bs": cmd_bs,
    "study": cmd_study,
}


def main(argv=None) -> int:
    parser = _Parser(
        prog="tfp",
        description="Boundary-layer studies of the trapped ground state: "
        "connection profile, composite expansion, spectra, Bohr-Sommerfeld.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--out", default="tfp_out", help="output directory")
        p.add_argument("--plots", action="store_true", help="also write SVG plots")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        validate_config(cfg, args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    stages = _Stages()
    try:
        os.makedirs(args.out, exist_ok=True)
        sol = stages.run("painleve", lambda: solve_hastings_mcleod(cfg["n_nodes"]))
        summary = _COMMANDS[args.command](cfg, sol, args.out, args.plots, stages)
        # written last, so that its presence marks a finished run
        write_lines(os.path.join(args.out, "summary.txt"),
                    [f"{key}={format_float(val) if isinstance(val, float) else val}"
                     for key, val in summary])
    except Exception as exc:  # noqa: BLE001 - every stage failure maps to exit 2
        stage = stages.current or "setup"
        print(f"stage {stage} failed: {exc}", file=sys.stderr)
        return 2
    return 0


# all alive here (numpy, the package) lives until exit; frozen, exit does not collect it
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
