"""Spans around calls into each tfpainleve layer, recorded from outside the package.

The package binds names with ``from .x import f``, so a wrapper only sees
every call if it replaces the name in every module that holds it; ``install``
does that by object identity across all loaded ``tfpainleve`` modules.  Calls
made in worker-pool threads are caught the same way.  Spans stay in memory;
``Tracer.dump`` returns them for the caller to write out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent, thread, start, end, wall, cpu, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def call(self, name, fn, args, kwargs, attrs=None, span_id=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; ``attrs`` maps the call to counts.

        The parent defaults to the innermost open span of the calling thread.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        span_id = self.new_id() if span_id is None else span_id
        stack.append(span_id)
        extra = {}
        cpu0 = time.thread_time()
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            return result
        finally:
            t1 = time.monotonic()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(
                (span_id, name, parent, threading.get_ident(), t0, t1, t1 - t0, cpu, extra)
            )

    def dump(self):
        keys = ("id", "name", "parent", "thread", "start", "end", "wall", "cpu", "attrs")
        return [dict(zip(keys, s)) for s in sorted(self.spans, key=lambda s: s[0])]


def _arg(fn, name):
    """Getter for argument ``name`` of ``fn`` however the caller passed it."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _named(span):
    return lambda fn: (lambda args, kwargs: span)


def _eig_name(fn):
    label = _arg(fn, "label")

    def name(args, kwargs):
        tag = str(label(args, kwargs))
        if tag.startswith("M0"):
            return "spectrum.eig_M0"
        if tag.startswith("Lplus"):
            return "spectrum.eig_Lplus"
        return "spectrum.eig_other"

    return name


def _from_result(counts):
    return lambda fn: (lambda args, kwargs, result: counts(result))


def _eig_attrs(fn):
    op, k = _arg(fn, "op"), _arg(fn, "k")
    return lambda args, kwargs, res: {"work": int(op(args, kwargs).n) * int(k(args, kwargs))}


def _tridiag_attrs(fn):
    op = _arg(fn, "op")
    return lambda args, kwargs, res: {"unknowns": int(op(args, kwargs).n)}


def _csv_attrs(fn):
    path, columns = _arg(fn, "path"), _arg(fn, "columns")

    def attrs(args, kwargs, res):
        cols = columns(args, kwargs)
        return {
            "bytes": os.path.getsize(path(args, kwargs)),
            "rows": int(np.asarray(cols[0]).size),
        }

    return attrs


def _layers(tf):
    """(module, function, span-name factory, counts factory) of every traced call."""
    return [
        (tf.painleve, "solve_hastings_mcleod", _named("painleve.solve"),
         _from_result(lambda r: {"newton_iters": int(r.newton_iterations)})),
        (tf.corrections, "build_corrections", _named("corrections.build"), None),
        (tf.groundstate, "solve_ground_state", _named("groundstate.solve"),
         _from_result(lambda r: {"newton_iters": int(r.newton_iterations), "unknowns": int(r.grid.n)})),
        (tf.groundstate, "composite_eta", _named("groundstate.composite"), None),
        (tf.groundstate, "remainder_study", _named("groundstate.remainder"), None),
        (tf.spectrum, "eig_smallest", _eig_name, _eig_attrs),
        (tf.spectrum, "scaling_study", _named("spectrum.scaling"),
         _from_result(lambda r: {"gap_nonpositive": int(np.count_nonzero(r.pair_gap <= 0.0))})),
        (tf.semiclassics, "bs_eigenvalue", _named("semiclassics.bs"), None),
        (tf.semiclassics, "action", _named("semiclassics.action"), None),
        (tf.semiclassics, "from_solution", _named("semiclassics.profile"), None),
        (tf.grids, "solve_tridiagonal", _named("grids.tridiag"), _tridiag_attrs),
        (tf._io, "write_csv", _named("io.csv"), _csv_attrs),
    ]


def _rebind(original, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "tfpainleve" or name.startswith("tfpainleve."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point that exists in the loaded package."""
    import tfpainleve as tf
    import tfpainleve.cli  # noqa: F401 - loads every module the CLI binds

    for module, fname, namer, attrs in _layers(tf):
        fn = getattr(module, fname, None)
        if fn is None:
            continue
        name_of = namer(fn)
        counts = attrs(fn) if attrs is not None else None

        def wrapper(*args, _fn=fn, _name_of=name_of, _counts=counts, **kwargs):
            return tracer.call(_name_of(args, kwargs), _fn, args, kwargs, attrs=_counts)

        _rebind(fn, functools.wraps(fn)(wrapper))

    pool = getattr(tf._io, "parallel_map", None)
    if pool is not None:
        _rebind(pool, functools.wraps(pool)(_pool_wrapper(tracer, pool)))


def _pool_wrapper(tracer: Tracer, pool):
    """parallel_map in an ``io.pool`` span, each item in an ``io.pool_item`` child."""

    def wrapper(fn, items):
        items = list(items)
        pool_id = tracer.new_id()

        def item(it):
            return tracer.call("io.pool_item", fn, (it,), {}, parent=pool_id)

        return tracer.call(
            "io.pool", pool, (item, items), {}, span_id=pool_id,
            attrs=lambda a, k, r: {"items": len(items)},
        )

    return wrapper


# Per-layer metrics: name -> (unit, better).  "io" stands for the _io module.
PER_LAYER = {
    "painleve.solve_s": ("s", "lower"),
    "painleve.newton_iters": ("count", "lower"),
    "corrections.build_s": ("s", "lower"),
    "corrections.calls": ("count", "lower"),
    "groundstate.solve_self_s": ("s", "lower"),
    "groundstate.composite_s": ("s", "lower"),
    "groundstate.solves": ("count", "lower"),
    "groundstate.newton_iters": ("count", "lower"),
    "groundstate.unknowns": ("count", "lower"),
    "groundstate.remainder_s": ("s", "lower"),
    "spectrum.eig_M0_s": ("s", "lower"),
    "spectrum.eig_M0_calls": ("count", "lower"),
    "spectrum.eig_Lplus_s": ("s", "lower"),
    "spectrum.eig_Lplus_cpu_s": ("s", "lower"),
    "spectrum.eig_Lplus_calls": ("count", "lower"),
    "spectrum.scaling_s": ("s", "lower"),
    "spectrum.eig_work": ("count", "lower"),
    "spectrum.gap_nonpositive": ("count", "lower"),
    "semiclassics.bs_s": ("s", "lower"),
    "semiclassics.levels": ("count", "lower"),
    "semiclassics.action_calls": ("count", "lower"),
    "semiclassics.action_s": ("s", "lower"),
    "semiclassics.profile_s": ("s", "lower"),
    "grids.tridiag_s": ("s", "lower"),
    "grids.tridiag_solves": ("count", "lower"),
    "grids.tridiag_unknowns": ("count", "lower"),
    "io.csv_s": ("s", "lower"),
    "io.csv_bytes": ("B", "lower"),
    "io.csv_rows": ("count", "lower"),
    "io.pool_s": ("s", "lower"),
    "io.pool_items": ("count", "lower"),
    "io.pool_wait_s": ("s", "lower"),
    "io.pool_speedup": ("ratio", "higher"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "setup.numpy_s": ("s", "lower"),
    "setup.scipy_s": ("s", "lower"),
    "setup.tfpainleve_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metrics that count work exactly: identical on every traced run of a config.
EXACT_COUNTS = [k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B")]


def self_times(spans, only=None) -> dict:
    """Span id -> its wall time minus the part of it that child spans cover.

    With ``only``, a set of span names, only children with those names count.
    """
    children = {}
    for s in spans:
        if only is None or s["name"] in only:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer sums and counts of one traced run (all but setup, speedup, overhead)."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    own = self_times(spans)
    own_gs = self_times(spans, only={"groundstate.composite"})

    def wall(name):
        return float(sum(s["wall"] for s in by.get(name, ())))

    def calls(name):
        return len(by.get(name, ()))

    def total(name, key):
        return int(sum(s["attrs"].get(key, 0) for s in by.get(name, ())))

    items = by.get("io.pool_item", ())
    eig = by.get("spectrum.eig_M0", []) + by.get("spectrum.eig_Lplus", []) + by.get(
        "spectrum.eig_other", []
    )
    return {
        "painleve.solve_s": wall("painleve.solve"),
        "painleve.newton_iters": total("painleve.solve", "newton_iters"),
        "corrections.build_s": wall("corrections.build"),
        "corrections.calls": calls("corrections.build"),
        "groundstate.solve_self_s": float(
            sum(own_gs[s["id"]] for s in by.get("groundstate.solve", ()))
        ),
        "groundstate.composite_s": wall("groundstate.composite"),
        "groundstate.solves": calls("groundstate.solve"),
        "groundstate.newton_iters": total("groundstate.solve", "newton_iters"),
        "groundstate.unknowns": total("groundstate.solve", "unknowns"),
        "groundstate.remainder_s": wall("groundstate.remainder"),
        "spectrum.eig_M0_s": wall("spectrum.eig_M0"),
        "spectrum.eig_M0_calls": calls("spectrum.eig_M0"),
        "spectrum.eig_Lplus_s": wall("spectrum.eig_Lplus"),
        "spectrum.eig_Lplus_cpu_s": float(sum(s["cpu"] for s in by.get("spectrum.eig_Lplus", ()))),
        "spectrum.eig_Lplus_calls": calls("spectrum.eig_Lplus"),
        "spectrum.scaling_s": wall("spectrum.scaling"),
        "spectrum.eig_work": int(sum(s["attrs"].get("work", 0) for s in eig)),
        "spectrum.gap_nonpositive": total("spectrum.scaling", "gap_nonpositive"),
        "semiclassics.bs_s": wall("semiclassics.bs"),
        "semiclassics.levels": calls("semiclassics.bs"),
        "semiclassics.action_calls": calls("semiclassics.action"),
        "semiclassics.action_s": wall("semiclassics.action"),
        "semiclassics.profile_s": wall("semiclassics.profile"),
        "grids.tridiag_s": wall("grids.tridiag"),
        "grids.tridiag_solves": calls("grids.tridiag"),
        "grids.tridiag_unknowns": total("grids.tridiag", "unknowns"),
        "io.csv_s": wall("io.csv"),
        "io.csv_bytes": total("io.csv", "bytes"),
        "io.csv_rows": total("io.csv", "rows"),
        "io.pool_s": wall("io.pool"),
        "io.pool_items": calls("io.pool_item"),
        "io.pool_wait_s": float(sum(s["wall"] - s["cpu"] for s in items)),
        "cli.main_s": wall("cli.main"),
        "cli.self_s": float(sum(own[s["id"]] for s in by.get("cli.main", ()))),
    }


def import_split(stderr: str) -> dict:
    """Self import time of numpy, scipy and tfpainleve from ``-X importtime`` output."""
    totals = {"numpy": 0, "scipy": 0, "tfpainleve": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header line
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(fields[0])
    return {f"setup.{k}_s": v * 1e-6 for k, v in totals.items()}
