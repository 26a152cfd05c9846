"""Cold-CLI benchmark of tfpainleve, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload study_d1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Load model: one benchmark process runs one ``tfp`` child at a time (a closed
loop with a single client); the program's own worker pool runs inside it.

--trace 0 times repeated cold child processes and prints the end-to-end
metrics.  --trace 1 runs cycles of an untraced child, a traced child, a traced
child with TFP_THREADS=1 and one ``-X importtime`` import, and prints the
per-layer metrics.  Every child's outputs are checked (check.py); the last
line of standard output is the result object, the line before it the details
(samples, output digests, environment stamp).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
MIN_SAMPLES = 3
# The host's speed drifts with other tenants: raw medians of one commit moved
# by up to 30 % between two sets of runs twenty minutes apart.
# A probe thread in this process times a fixed chunk of work every
# PROBE_PERIOD_S while each child runs, in thread CPU time (so waiting for a
# core the child holds does not count).  wall_s and wall_s_tail are the
# child's wall time multiplied by PROBE_REF_S / mean chunk time, that is,
# reported at the speed of a machine on which the chunk takes PROBE_REF_S.
# The probe shares the host's two cores with the child, so the child's own
# load moves it too; README.md gives the size of that bias.  setup_s and all
# per-layer times are raw.  The probe costs about 1 % of one core.
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.75e-3
# Every run must end within 180 s; stop starting children well before that.
HARD_LIMIT_S = 150.0


class Child:
    """One finished child process: wall time, peak RSS, exit code, its record.

    ``speed`` is the SpeedProbe factor measured while it ran.
    """

    def __init__(self, wall, rss_mb, returncode, record, stderr):
        self.wall = wall
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.record = record
        self.stderr = stderr
        self.speed = 1.0


def _env(threads: str | None) -> dict:
    env = dict(os.environ)
    env.pop("TFP_THREADS", None)
    if threads is not None:
        env["TFP_THREADS"] = threads
    env["PYTHONPATH"] = SRC
    return env


_PROBE_DIAG = np.linspace(1.0, 3.0, 128)
_PROBE_SHIFTS = np.linspace(0.5, 3.5, 8)


def _probe_chunk() -> float:
    """Thread CPU time of a fixed Sturm-count pass: interpreted Python over small arrays."""
    t0 = time.thread_time()
    q = _PROBE_DIAG[0] - _PROBE_SHIFTS
    for i in range(1, _PROBE_DIAG.size):
        q = _PROBE_DIAG[i] - _PROBE_SHIFTS - 0.25 / q
        q = np.where(np.abs(q) < 1e-300, -1e-300, q)
    return time.thread_time() - t0


class SpeedProbe:
    """Context that runs _probe_chunk every PROBE_PERIOD_S until it exits."""

    def __init__(self):
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.times.append(_probe_chunk())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        """PROBE_REF_S over the mean chunk time, slowest tenth dropped (interrupts)."""
        kept = sorted(self.times)[: max(1, (9 * len(self.times)) // 10)]
        return PROBE_REF_S / statistics.fmean(kept)


def spawn(cmd: list[str], env: dict, work: str, timeout: float) -> Child:
    """Run cmd to completion; wall time from just before the spawn to reaping."""
    err_path = os.path.join(work, "stderr.txt")
    record_path = os.path.join(work, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    with open(err_path, "w") as err:
        start = time.monotonic()
        env["PERFBENCH_SPAWN"] = repr(start)
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as f:
        stderr = f.read()
    record = None
    if os.path.exists(record_path):
        with open(record_path) as f:
            record = json.load(f)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, record, stderr)


class Run:
    """All children of one benchmark invocation and their output checks."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "run.cfg")
        with open(self.config, "w") as f:
            f.write(workloads.config_text(workload, seed))
        self.out = os.path.join(self.work, "out")
        self.reference = check.load_reference(BENCH_DIR, workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict | None = None
        self.digests_stable = True
        self.identical = None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def tfp(self, mode: str, threads: str | None = None) -> Child:
        """One checked cold ``tfp`` child; mode is "plain" or "traced"."""
        shutil.rmtree(self.out, ignore_errors=True)
        args = workloads.argv(self.workload, self.config, self.out)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode,
               os.path.join(self.work, "record.json"), *args]
        with SpeedProbe() as probe:
            child = spawn(cmd, _env(threads), self.work, self.remaining())
        child.speed = probe.factor()
        problems, digests, identical = check.check_run(
            self.workload, self.seed, self.out, child.returncode, self.reference
        )
        if child.record is None and not problems:
            problems.append("child wrote no record")
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = child.stderr.strip().splitlines()[-1:] if child.stderr.strip() else []
            self.problems.extend(problems + tail)
        if self.digests is None:
            self.digests, self.identical = digests, identical
        elif digests != self.digests:
            self.digests_stable = False
        return child

    def import_split(self) -> dict:
        cmd = [sys.executable, "-X", "importtime", "-c", "import tfpainleve.cli"]
        proc = subprocess.run(cmd, env=_env(None), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(self.remaining(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"import of tfpainleve.cli failed: {proc.stderr.strip()}")
        return tracing.import_split(proc.stderr)

    def keep_going(self, count: int, minimum: int) -> bool:
        """Start another sample or cycle only if it fits in the time left."""
        if count < minimum:
            return self.remaining() > 0.0
        elapsed = time.monotonic() - self.loop_start
        per = elapsed / count
        return elapsed + per <= self.seconds and per < self.remaining()

    def warm_up(self) -> None:
        """One untimed import: page cache and bytecode files, as an installed package has."""
        self.import_split()
        self.loop_start = time.monotonic()


TAIL_PERCENTILES = (99, 95, 90)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest of TAIL_PERCENTILES with at least ten samples above it, else the maximum.

    Percentiles are nearest-rank.  Returns the value and which statistic it is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # ceil(p n / 100), 1-based
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p}"
    return ordered[-1], "max"


def end_to_end(run: Run) -> tuple[dict, dict]:
    children = []
    while run.keep_going(len(children), MIN_SAMPLES):
        children.append(run.tfp("plain"))
    good = [c for c in children if c.returncode == 0 and c.record is not None] or children
    raw_walls = [c.wall for c in good]
    walls = [c.wall * c.speed for c in good]
    setups = [c.record["setup_s"] for c in good if c.record is not None]
    tail_value, tail_statistic = tail(walls)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(c.rss_mb for c in good),
        "pass_frac": (run.attempted - run.failed) / run.attempted,
    }
    detail = {
        "samples": len(walls),
        "wall_samples_s": walls,
        "wall_s_tail_statistic": tail_statistic,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_wall_s_tail": tail(raw_walls)[0],
        "raw_wall_samples_s": raw_walls,
        "speed_factors": [c.speed for c in good],
        "setup_samples_s": setups,
        "peak_rss_samples_mb": [c.rss_mb for c in good],
        "pool_size": _pool_size(good),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, detail


def _pool_size(children):
    sizes = {c.record["pool_size"] for c in children if c.record is not None}
    return sizes.pop() if len(sizes) == 1 else sorted(sizes)


def per_layer(run: Run) -> tuple[dict, dict]:
    plain, traced, single, imports = [], [], [], []
    while run.keep_going(len(plain), 1):
        plain.append(run.tfp("plain"))
        traced.append(run.tfp("traced"))
        single.append(run.tfp("traced", threads="1"))
        imports.append(run.import_split())
    traced = [c for c in traced if c.record is not None]
    single = [c for c in single if c.record is not None]
    if not traced or not single:
        raise RuntimeError("no traced child finished: " + "; ".join(run.problems[:3]))
    layers = [tracing.layer_metrics(c.record["spans"]) for c in traced]
    layers_single = [tracing.layer_metrics(c.record["spans"]) for c in single]
    values = {}
    for name in layers[0]:
        if name in tracing.EXACT_COUNTS:
            values[name] = layers[0][name]
        else:
            values[name] = statistics.median(m[name] for m in layers)
    for name in imports[0]:
        values[name] = statistics.median(m[name] for m in imports)
    values["io.pool_speedup"] = statistics.median(
        m["cli.main_s"] for m in layers_single
    ) / statistics.median(m["cli.main_s"] for m in layers)
    values["trace.overhead_s"] = statistics.median(
        c.wall for c in traced
    ) - statistics.median(c.wall for c in plain)
    stable = all(
        m[name] == layers[0][name] for m in layers + layers_single for name in tracing.EXACT_COUNTS
        if name in layers[0]
    )
    detail = {
        "cycles": len(traced),
        "counts_stable": stable,
        "traced_wall_s": [c.wall for c in traced],
        "untraced_wall_s": [c.wall for c in plain],
        "single_thread_main_s": [m["cli.main_s"] for m in layers_single],
        "pool_size": _pool_size(traced),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in tracing.PER_LAYER.items()}
    return metrics, detail


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_sha = None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "tfpainleve")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "children_at_once": 1,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    run = Run(workload, seed, seconds)
    run.warm_up()
    metrics, detail = per_layer(run) if trace else end_to_end(run)
    shutil.rmtree(run.out, ignore_errors=True)
    detail.update(
        workload=workload,
        seed=seed,
        trace=trace,
        seconds=seconds,
        eps=list(workloads.eps_ladder(workload, seed)),
        digests=run.digests,
        digests_stable=run.digests_stable,
        outputs_identical=run.identical,
        problems=run.problems[:20],
        environment=environment(),
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "tfpainleve", "cli.py")):
        print(f"no tfpainleve sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            print(json.dumps({"workload": name, **outcomes[name]["result"]}), flush=True)
    if args.workload == "all":
        results = [o["result"] for o in outcomes.values()]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{k}": v for name, o in outcomes.items()
                for k, v in o["result"]["metrics"].items()
            },
        }
        detail = {name: o["detail"] for name, o in outcomes.items()}
    else:
        result, detail = outcomes[names[0]]["result"], outcomes[names[0]]["detail"]
    for problem in (p for o in outcomes.values() for p in o["detail"]["problems"]):
        print(f"check failed: {problem}", file=sys.stderr)
    results_dir = os.path.join(ROOT, ".perfbench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, f"{stem}.json"), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
