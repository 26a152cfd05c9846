"""Workload definitions and the seeded config generator.

Each workload is one ``tfp`` subcommand on a config file the benchmark writes.
Seed 0 writes the canonical eps ladder; any other seed jitters each eps
log-uniformly by up to JITTER (a factor), then rounds it to six significant
digits so that the program's ``eps{eps:g}`` file names stay unique.  The
ladders' adjacent ratios are at least 1.25, so the jitter keeps the values
distinct and their order unchanged.
"""

from __future__ import annotations

import math
import random

JITTER = 1.03

WORKLOADS = {
    # The paper's full chain, the headline user command: profile, correction
    # ladder, remainder study, M0 and L+ spectra, Bohr-Sommerfeld.  Dominated
    # by the M0 eigensolve (run twice), then L+ and the BS quadrature.
    "study_d1": {
        "command": "study",
        "plots": True,
        "config": {
            "dimension": 1,
            "order": 2,
            "n_pairs": 3,
            "bs_levels": "1,2,3,4,5,6,7,8",
        },
        "eps": (0.1, 0.05, 0.025),
    },
    # No eigensolve, no quadrature: CSV writing, ground-state Newton plus the
    # composite, the d=3 ladder and a 120k-node Painleve solve.  eps stays at
    # or below 0.2: for d=3 no positive state exists once eps*d >= 1.
    "profiles_d3_fine": {
        "command": "groundstate",
        "plots": False,
        "config": {
            "dimension": 3,
            "order": 3,
            "n_nodes": 120001,
            "nodes_per_layer": 400,
        },
        "eps": (0.2, 0.1, 0.05, 0.025, 0.0125, 0.008, 0.005),
    },
    # Twenty small L+ problems through the worker pool against one large M0.
    "scaling_ladder": {
        "command": "spectrum",
        "plots": False,
        "config": {"n_pairs": 6},
        "eps": (0.2, 0.14, 0.1, 0.07, 0.05, 0.035, 0.025, 0.0175, 0.0125, 0.01),
    },
}

# Program defaults the checks rely on; written into every config explicitly.
GS_TOL = 1e-8


def eps_ladder(workload: str, seed: int) -> tuple[float, ...]:
    """The eps values for a seed, descending."""
    spec = WORKLOADS[workload]
    base = spec["eps"]
    if seed == 0:
        return base
    rng = random.Random(f"{workload}:{seed}")
    span = math.log(JITTER)
    out = []
    for e in base:
        j = e * math.exp(rng.uniform(-span, span))
        out.append(float(f"{j:.6g}"))
    d = spec["config"].get("dimension", 1)
    if any(e * d >= 1.0 or not 0.0 < e <= 0.5 for e in out):
        raise ValueError(f"seed {seed} gives an eps outside the admissible range: {out}")
    if out != sorted(set(out), reverse=True):
        raise ValueError(f"seed {seed} gives eps values that are not distinct and sorted")
    return tuple(out)


def config_text(workload: str, seed: int) -> str:
    """The key=value config file the program reads for this workload and seed."""
    spec = WORKLOADS[workload]
    lines = [f"# perfbench workload {workload}, seed {seed}"]
    lines += [f"{k} = {v}" for k, v in spec["config"].items()]
    lines.append(f"gs_tol = {GS_TOL!r}")
    lines.append("eps = " + ", ".join(repr(e) for e in eps_ladder(workload, seed)))
    return "\n".join(lines) + "\n"


def argv(workload: str, config_path: str, out_dir: str) -> list[str]:
    """The ``tfp`` arguments of one run."""
    spec = WORKLOADS[workload]
    args = [spec["command"], "--config", config_path, "--out", out_dir]
    if spec["plots"]:
        args.append("--plots")
    return args
