"""Command-line harness: every study as a subcommand with CSV and SVG output.

Subcommands: painleve | groundstate | spectrum | bs | study.  Configuration is
a key=value text file (--config); results land in --out as CSV files with
fixed column schemas plus a summary.txt, and --plots adds minimal SVG line
plots.  Studies run one eps at a time in a single thread, so output is
byte-identical for a given config.  Exit codes: 0 success, 1 bad
configuration, 2 first failing stage (named on standard error).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._io import format_float, write_csv, write_lines
from .corrections import build_corrections, check_expansion
from .groundstate import (check_ground_state, energy, eps_ladder, ground_state_ladder,
                          remainder_study)
from .painleve import check_window, solve_hastings_mcleod
from .semiclassics import bs_eigenvalue, check_levels, from_solution
from .spectrum import assemble_M0, check_d1, eig_smallest, scaling_study


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or failed precondition."""


_DEFAULTS = {
    "dimension": 1,
    "eps": (0.1, 0.05, 0.025),
    "order": 2,
    "y_min": -20.0,
    "y_max": 40.0,
    "n_nodes": 6001,
    "tol": 1e-10,
    "gs_tol": 1e-8,
    "nodes_per_layer": 40,
    "r_max": 2.5,
    "n_pairs": 3,
    "bs_levels": (1, 2, 3, 4, 5, 6, 7, 8),
    "out_dir": None,
}


def _parse_value(key: str, raw: str):
    """``raw`` as the type of the key's default: a tuple is a comma list, None is text."""
    default = _DEFAULTS[key]
    try:
        if default is None:
            return raw
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
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
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
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    try:
        check_expansion(cfg["dimension"], cfg["order"])
        if command == "spectrum":
            check_d1(cfg["dimension"])
        check_window(cfg["y_min"], cfg["y_max"], cfg["n_nodes"])
        for eps in eps_ladder(cfg["eps"]):
            check_ground_state(eps, cfg["dimension"], cfg["r_max"], cfg["nodes_per_layer"])
        check_levels(cfg["bs_levels"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the labels name the per-eps CSV files and summary keys
    if len({f"{e:g}" for e in cfg["eps"]}) < len(cfg["eps"]):
        raise ConfigError(f"eps values must have distinct 6-digit labels, got {cfg['eps']}")
    for key in ("tol", "gs_tol"):
        if not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    if not 1 <= cfg["n_pairs"] <= 8:
        raise ConfigError(f"n_pairs must be between 1 and 8, got {cfg['n_pairs']}")
    if not cfg["bs_levels"] or len(set(cfg["bs_levels"])) < len(cfg["bs_levels"]):
        raise ConfigError(f"bs_levels must be non-empty and distinct, got {cfg['bs_levels']}")


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(path, title, series, logx=False, logy=False):
    """Minimal SVG polyline plot: axes box, series, and a text legend."""
    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 40, 40
    xs_all, ys_all = [], []
    clean = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            keep &= xs > 0.0
        if logy:
            keep &= ys > 0.0
        xs, ys = xs[keep], ys[keep]
        if xs.size == 0:
            continue
        px = np.log10(xs) if logx else xs
        py = np.log10(ys) if logy else ys
        clean.append((name, px, py))
        xs_all.append(px)
        ys_all.append(py)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    if clean:
        x0 = min(float(p.min()) for p in xs_all)
        x1 = max(float(p.max()) for p in xs_all)
        y0 = min(float(p.min()) for p in ys_all)
        y1 = max(float(p.max()) for p in ys_all)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        pad_x, pad_y = 0.03 * (x1 - x0), 0.05 * (y1 - y0)
        x0, x1 = x0 - pad_x, x1 + pad_x
        y0, y1 = y0 - pad_y, y1 + pad_y

        def to_px(px, py):
            sx = ml + (px - x0) / (x1 - x0) * (width - ml - mr)
            sy = height - mb - (py - y0) / (y1 - y0) * (height - mt - mb)
            return sx, sy

        for i, (name, px, py) in enumerate(clean):
            sx, sy = to_px(px, py)
            pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx, sy))
            color = _COLORS[i % len(_COLORS)]
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{width - mr - 10}" y="{mt + 18 + 16 * i}" text-anchor="end" '
                f'font-size="12" fill="{color}">{name}</text>'
            )
        for val, sx in ((x0, ml), (x1, width - mr)):
            label = f"{10.0 ** val:.3g}" if logx else f"{val:.3g}"
            parts.append(
                f'<text x="{sx}" y="{height - mb + 18}" text-anchor="middle" font-size="12">{label}</text>'
            )
        for val, sy in ((y0, height - mb), (y1, mt)):
            label = f"{10.0 ** val:.3g}" if logy else f"{val:.3g}"
            parts.append(
                f'<text x="{ml - 6}" y="{sy + 4}" text-anchor="end" font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    write_lines(path, parts)


def _format_residual(value: float) -> str:
    # a converged Newton residual is rounding noise below its tolerance: two digits say all of it
    return f"{value:.1e}"


def _write_summary(path, pairs) -> None:
    write_lines(path, [f"{key}={format_float(val) if isinstance(val, float) else val}"
                       for key, val in pairs])


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


def _solve_painleve(cfg):
    return solve_hastings_mcleod(
        y_min=cfg["y_min"], y_max=cfg["y_max"], n_nodes=cfg["n_nodes"], tol=cfg["tol"]
    )


def cmd_painleve(cfg, out, plots, stages) -> None:
    sol = stages.run("painleve", lambda: _solve_painleve(cfg))
    sol.to_csv(os.path.join(out, "painleve.csv"))
    W = from_solution(sol)
    _write_summary(
        os.path.join(out, "summary.txt"),
        [
            ("nu0_at_0", float(sol.interp_nu0(0.0))),
            ("W_min", W.well_value),
            ("W_min_location", W.well_location),
            ("residual_max", _format_residual(sol.residual_max)),
            ("newton_iterations", sol.newton_iterations),
        ],
    )
    if plots:
        y = sol.grid.nodes
        _svg_plot(
            os.path.join(out, "painleve.svg"),
            "Connection profile and layer potential",
            [("nu0", y, sol.nu0), ("W0", y, sol.w0)],
        )


def cmd_groundstate(cfg, out, plots, stages) -> None:
    d = cfg["dimension"]
    sol = stages.run("painleve", lambda: _solve_painleve(cfg))
    cset = stages.run("corrections", lambda: build_corrections(sol, d, order=cfg["order"]))
    states = stages.run("groundstate", lambda: list(ground_state_ladder(
        cset, cfg["eps"], tol=cfg["gs_tol"], r_max=cfg["r_max"],
        nodes_per_layer=cfg["nodes_per_layer"],
    )))
    summary = []
    for gs in states:
        gs.to_csv(os.path.join(out, f"groundstate_d{d}_eps{gs.eps:g}.csv"))
        summary.append((f"energy_eps{gs.eps:g}", energy(gs)))
        summary.append((f"residual_eps{gs.eps:g}", _format_residual(gs.residual_max)))
    _write_summary(os.path.join(out, "summary.txt"), summary)
    if plots:
        series = [(f"eta eps={gs.eps:g}", gs.grid.nodes, gs.eta) for gs in states]
        _svg_plot(os.path.join(out, "groundstate.svg"), f"Ground states, d={d}", series)


def _bs_levels(cfg) -> tuple:
    return tuple(sorted(cfg["bs_levels"]))


def _m0_eigenvalues(sol, k):
    return eig_smallest(assemble_M0(sol), k, label="M0").eigenvalues


def _bs_table(sol, levels, mu, out, stages):
    """Bohr-Sommerfeld energies of ``levels`` against the M0 eigenvalues ``mu``, into bs.csv.

    Runs the quadrature as stage "bs"; returns (mu_bs, mu_m0, relative error).
    """
    mu_bs = stages.run("bs", lambda: bs_eigenvalue(from_solution(sol), levels))
    ns = np.asarray(levels)
    mu_m0 = mu[ns - 1]
    rel = np.abs(mu_bs - mu_m0) / mu_m0
    write_csv(
        os.path.join(out, "bs.csv"),
        ["n", "mu_bs", "mu_m0", "rel_err"],
        [ns.astype(float), mu_bs, mu_m0, rel],
    )
    return mu_bs, mu_m0, rel


def _scaling_plot(path, table, n_pairs) -> None:
    series = []
    for i in range(n_pairs):
        pick = table.n == i + 1
        series.append((f"scaled odd n={i + 1}", table.eps[pick], table.scaled_odd[pick]))
        series.append((f"scaled even n={i + 1}", table.eps[pick], table.scaled_even[pick]))
    _svg_plot(path, "Scaled eigenvalues vs eps", series)


def cmd_spectrum(cfg, out, plots, stages) -> None:
    sol = stages.run("painleve", lambda: _solve_painleve(cfg))
    cset = stages.run("corrections", lambda: build_corrections(sol, 1, order=cfg["order"]))
    table = stages.run(
        "scaling",
        lambda: scaling_study(
            cset, cfg["eps"], _m0_eigenvalues(sol, cfg["n_pairs"]), n_pairs=cfg["n_pairs"],
            nodes_per_layer=cfg["nodes_per_layer"], gs_tol=cfg["gs_tol"],
        ),
    )
    table.to_csv(os.path.join(out, "spectrum.csv"))
    mu = table.mu[: cfg["n_pairs"]]
    _write_summary(
        os.path.join(out, "summary.txt"),
        [(f"mu_{i + 1}", float(m)) for i, m in enumerate(mu)],
    )
    if plots:
        _scaling_plot(os.path.join(out, "spectrum.svg"), table, cfg["n_pairs"])


def cmd_bs(cfg, out, plots, stages) -> None:
    sol = stages.run("painleve", lambda: _solve_painleve(cfg))
    levels = _bs_levels(cfg)
    mu = stages.run("bs", lambda: _m0_eigenvalues(sol, levels[-1]))
    mu_bs, mu_m0, rel = _bs_table(sol, levels, mu, out, stages)
    _write_summary(os.path.join(out, "summary.txt"), [("max_rel_err", float(rel.max()))])
    if plots:
        ns = np.asarray(levels, dtype=float)
        _svg_plot(
            os.path.join(out, "bs.svg"),
            "Bohr-Sommerfeld vs layer operator",
            [("mu_bs", ns, mu_bs), ("mu_m0", ns, mu_m0)],
        )


def cmd_study(cfg, out, plots, stages) -> None:
    d = cfg["dimension"]
    sol = stages.run("painleve", lambda: _solve_painleve(cfg))
    sol.to_csv(os.path.join(out, "painleve.csv"))
    order = cfg["order"]
    cset = stages.run("corrections", lambda: build_corrections(sol, d, order=order))
    cset.to_csv(os.path.join(out, "corrections.csv"))
    remainder = stages.run("remainder", lambda: remainder_study(cset, cfg["eps"]))
    remainder.to_csv(os.path.join(out, "remainder.csv"))
    cset1 = cset if d == 1 else stages.run(
        "corrections", lambda: build_corrections(sol, 1, order=order)
    )
    levels = _bs_levels(cfg)

    def scaling_table():
        # one M0 solve serves both the scaling table and the Bohr-Sommerfeld table
        mu = _m0_eigenvalues(sol, max(cfg["n_pairs"], levels[-1]))
        table = scaling_study(
            cset1, cfg["eps"], mu, n_pairs=cfg["n_pairs"],
            nodes_per_layer=cfg["nodes_per_layer"], gs_tol=cfg["gs_tol"],
        )
        return mu, table

    mu, scaling = stages.run("scaling", scaling_table)
    scaling.to_csv(os.path.join(out, "scaling.csv"))
    _bs_table(sol, levels, mu, out, stages)
    _write_summary(
        os.path.join(out, "summary.txt"),
        [
            ("dimension", d),
            ("order", order),
            ("remainder_fit_order", remainder.fit_order),
            ("mu_1", float(scaling.mu[0])),
        ],
    )
    if plots:
        _svg_plot(
            os.path.join(out, "remainder.svg"),
            f"Composite remainder, d={d}, N={order}",
            [("sup error", remainder.eps, remainder.err)],
            logx=True,
            logy=True,
        )
        _scaling_plot(os.path.join(out, "scaling.svg"), scaling, cfg["n_pairs"])


_COMMANDS = {
    "painleve": cmd_painleve,
    "groundstate": cmd_groundstate,
    "spectrum": cmd_spectrum,
    "bs": cmd_bs,
    "study": cmd_study,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        validate_config(cfg, args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    out = cfg["out_dir"] or args.out
    stages = _Stages()
    try:
        os.makedirs(out, exist_ok=True)
        _COMMANDS[args.command](cfg, out, args.plots, stages)
    except Exception as exc:  # noqa: BLE001 - every stage failure maps to exit 2
        stage = stages.current or "setup"
        print(f"stage {stage} failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
