"""Output checks: expected files, finite values, seed-0 reference, invariants.

Tolerance.  On seed 0 every stored value must satisfy |a - b| <= RTOL * S,
where S is the scale of the quantity the value was computed from:

* by default the largest magnitude in the reference column (or |b| for a
  summary value), so near-zero tail entries are judged on the column's scale;
* ``abs_diff`` (|eta - composite|): the scale of ``eta``;
* ``pair_gap`` = (lambda_even - lambda_odd) / lambda_even: absolute, scaled by
  lambda, S = (|lambda_odd| + |lambda_even|) / |lambda_even|.  Rows at small eps
  are rounding noise (~1e-15) and must not be compared relatively;
* ``rel_err`` (BS against M0): S = (|mu_bs| + |mu_m0|) / |mu_m0|;
* ``err`` of the remainder study: the ground-state scale 1, and its pair
  ``order`` and ``remainder_fit_order`` inherit that tolerance through the
  log-ratio and least-squares formulas that define them.

RTOL = 1e-8 admits an eigen backend that agrees to ~1e-11 relative and
rounding-level changes in the Newton solves, and rejects a wrong eigenvalue,
whose error is at least the level spacing (~1e-4 relative or more).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import GS_TOL, WORKLOADS, eps_ladder

RTOL = 1e-8
MU_1 = 2.4105310682
MU_1_TOL = 1e-9
# Large files are compared on an evenly strided subset of rows of this size,
# plus every column's sum; small files on every row.
SAMPLE_ROWS = 256


def expected_files(workload: str, seed: int) -> list[str]:
    command = WORKLOADS[workload]["command"]
    if command == "study":
        return [
            "painleve.csv", "corrections.csv", "remainder.csv", "scaling.csv", "bs.csv",
            "summary.txt", "remainder.svg", "scaling.svg",
        ]
    if command == "groundstate":
        d = WORKLOADS[workload]["config"]["dimension"]
        return [f"groundstate_d{d}_eps{e:g}.csv" for e in eps_ladder(workload, seed)] + [
            "summary.txt"
        ]
    if command == "spectrum":
        return ["spectrum.csv", "summary.txt"]
    raise ValueError(f"no expected files for command {command!r}")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_csv(path: str):
    """Header list and a (rows, columns) float array."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        body = f.read()
    flat = body.replace("\n", ",").split(",")
    if flat and flat[-1] == "":
        flat.pop()
    values = np.array(flat, dtype=float)
    if values.size % len(header):
        raise ValueError(f"{os.path.basename(path)}: ragged rows")
    return header, values.reshape(-1, len(header))


def read_summary(path: str) -> dict[str, str]:
    out = {}
    with open(path) as f:
        for line in f:
            key, _, raw = line.strip().partition("=")
            out[key] = raw
    return out


def read_outputs(out_dir: str, names: list[str]):
    """Parsed CSVs and summary, plus the sha256 of every CSV and summary file."""
    csvs, summary, digests = {}, {}, {}
    for name in names:
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            csvs[name] = read_csv(path)
            digests[name] = sha256(path)
        elif name == "summary.txt":
            summary = read_summary(path)
            digests[name] = sha256(path)
    return csvs, summary, digests


def _sample_rows(n: int) -> list[int]:
    if n <= SAMPLE_ROWS:
        return list(range(n))
    return sorted(set(np.linspace(0, n - 1, SAMPLE_ROWS).round().astype(int).tolist()))


def _scale(name: str, header: list[str], sub: np.ndarray, colmax) -> np.ndarray:
    """Per-entry scale S for the reference rows ``sub`` of one CSV."""
    scale = np.broadcast_to(np.asarray(colmax, dtype=float), sub.shape).copy()
    col = {h: i for i, h in enumerate(header)}
    if "abs_diff" in col and "eta" in col:
        scale[:, col["abs_diff"]] = colmax[col["eta"]]
    if "pair_gap" in col:
        lo, le = np.abs(sub[:, col["lambda_odd"]]), np.abs(sub[:, col["lambda_even"]])
        scale[:, col["pair_gap"]] = (lo + le) / le
    if "rel_err" in col:
        mb, mm = np.abs(sub[:, col["mu_bs"]]), np.abs(sub[:, col["mu_m0"]])
        scale[:, col["rel_err"]] = (mb + mm) / mm
    if name == "remainder.csv":  # small file: sub holds every row
        scale[:, col["err"]] = 1.0
        err, eps = sub[:, col["err"]], sub[:, col["eps"]]
        order = np.full(err.size, np.inf)
        order[1:] = (1.0 / err[1:] + 1.0 / err[:-1]) / np.abs(np.log(eps[:-1] / eps[1:]))
        scale[:, col["order"]] = order
    return scale


def _fit_order_scale(remainder: np.ndarray) -> float:
    """Bound on d(fit_order) per unit change in each err (least-squares slope)."""
    eps, err = remainder[:, 0], remainder[:, 1]
    le = np.log(eps) - np.log(eps).mean()
    return float(np.sum(np.abs(le) / err) / (le @ le))


def make_reference(workload: str, out_dir: str) -> dict:
    """Reference record of a seed-0 run, stored with the benchmark."""
    names = expected_files(workload, 0)
    csvs, summary, digests = read_outputs(out_dir, names)
    files = {}
    for name, (header, table) in csvs.items():
        rows = _sample_rows(table.shape[0])
        files[name] = {
            "header": header,
            "rows": int(table.shape[0]),
            "values": [[float(v) for v in table[r]] for r in rows],
            "colmax": [float(v) for v in np.nanmax(np.abs(table), axis=0)],
            "colsum": [float(v) for v in np.nansum(table, axis=0)],
        }
    ref = {"workload": workload, "digests": digests, "files": files, "summary": summary}
    if "bs.csv" in csvs:
        header, table = csvs["bs.csv"]
        ref["bs_max_rel_err"] = float(table[:, header.index("rel_err")].max())
    return ref


def _compare_reference(ref, csvs, summary, problems) -> None:
    for name, rec in ref["files"].items():
        header, table = csvs[name]
        if header != rec["header"]:
            problems.append(f"{name}: header {header} != {rec['header']}")
            continue
        if table.shape[0] != rec["rows"]:
            problems.append(f"{name}: {table.shape[0]} rows, reference has {rec['rows']}")
            continue
        rows = _sample_rows(rec["rows"])
        want = np.array(rec["values"], dtype=float)
        scale = _scale(name, header, want, rec["colmax"])
        got = table[rows]
        both_nan = np.isnan(got) & np.isnan(want)
        bad = ~both_nan & ~(np.abs(got - want) <= RTOL * scale)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            problems.append(
                f"{name}: {int(bad.sum())} values off the reference, first row {rows[r]} "
                f"column {header[c]}: {got[r, c]!r} vs {want[r, c]!r}"
            )
        sums = np.nansum(table, axis=0)
        limit = RTOL * np.array(rec["colmax"]) * max(table.shape[0], 1)
        off = np.abs(sums - np.array(rec["colsum"])) > limit
        if off.any():
            c = int(np.argmax(off))
            problems.append(f"{name}: column {header[c]} sum {sums[c]!r} vs {rec['colsum'][c]!r}")
    for key, raw in ref["summary"].items():
        if key not in summary:
            problems.append(f"summary.txt: missing {key}")
            continue
        if key.startswith("residual"):
            continue  # Newton residual norms are noise below tol; see invariants
        if key in ("dimension", "order"):
            if summary[key] != raw:
                problems.append(f"summary.txt: {key}={summary[key]} vs {raw}")
            continue
        b, a = float(raw), float(summary[key])
        scale = abs(b)
        if key == "remainder_fit_order":
            scale = _fit_order_scale(csvs["remainder.csv"][1])
        if not abs(a - b) <= RTOL * scale:
            problems.append(f"summary.txt: {key}={a!r} vs reference {b!r}")


def _check_invariants(workload, seed, ref, csvs, summary, problems) -> None:
    eps = np.array(eps_ladder(workload, seed))
    for name, (header, table) in csvs.items():
        finite = np.isfinite(table)
        if name == "remainder.csv":
            finite[0, header.index("order")] = True  # no pair order for the first eps
        if not finite.all():
            problems.append(f"{name}: {int((~finite).sum())} non-finite values")
        if "eps" in header:
            seen = np.unique(table[:, header.index("eps")])[::-1]
            if seen.size != eps.size or not np.allclose(seen, eps, rtol=1e-15, atol=0.0):
                problems.append(f"{name}: eps column {seen.tolist()} != config {eps.tolist()}")
        if "lambda_odd" in header:
            lam = table[:, [header.index("lambda_odd"), header.index("lambda_even")]]
            if not (lam > 0.0).all():
                problems.append(f"{name}: non-positive eigenvalue")
        if "mu_n" in header:
            mu1 = table[table[:, header.index("n")] == 1.0, header.index("mu_n")]
            if not np.all(np.abs(mu1 - MU_1) <= MU_1_TOL):
                problems.append(f"{name}: mu_1 {mu1.tolist()} != {MU_1}")
        if name == "bs.csv":
            worst = float(table[:, header.index("rel_err")].max())
            if not worst <= ref["bs_max_rel_err"] * (1.0 + RTOL):
                problems.append(f"bs.csv: max_rel_err {worst!r} worse than {ref['bs_max_rel_err']!r}")
    for key, raw in summary.items():
        try:
            value = float(raw)
        except ValueError:
            problems.append(f"summary.txt: {key}={raw!r} is not a number")
            continue
        if not math.isfinite(value):
            problems.append(f"summary.txt: {key} is not finite")
        if key.startswith("residual") and not value <= GS_TOL:
            problems.append(f"summary.txt: {key}={value!r} above gs_tol {GS_TOL}")
        if key == "mu_1" and not abs(value - MU_1) <= MU_1_TOL:
            problems.append(f"summary.txt: mu_1={value!r} != {MU_1}")


def check_run(workload: str, seed: int, out_dir: str, returncode: int, ref: dict):
    """(problems, digests, outputs_identical) for one finished run."""
    problems: list[str] = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    names = expected_files(workload, seed)
    missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        problems.append(f"missing outputs: {missing}")
        return problems, {}, None
    try:
        csvs, summary, digests = read_outputs(out_dir, names)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
        return problems, {}, None
    _check_invariants(workload, seed, ref, csvs, summary, problems)
    identical = None
    if seed == 0:
        _compare_reference(ref, csvs, summary, problems)
        identical = digests == ref["digests"]
    return problems, digests, identical


def load_reference(bench_dir: str, workload: str) -> dict:
    with open(os.path.join(bench_dir, "reference", f"{workload}.json")) as f:
        return json.load(f)
