"""In-memory span recording around zojade's public functions.

A span is (name, start, end, parent) plus two work counters whose meaning
depends on the span name (queries, rows, bytes, draws, clamps).  Spans are
kept in flat typed arrays so that a paper-scale rep (about 600k spans)
stays a few tens of megabytes, and they are turned into per-layer metrics
only after the rep has finished.

Instrumentation never edits ``src/``: :class:`Patches` swaps the names a
caller looks up (module globals of every ``zojade`` module, class
attributes, the ``ALGORITHMS`` table) and restores them afterwards.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

SPAN_NAMES = (
    "rep",
    "harness.config",
    "harness.setup",
    "harness.csv",
    "graphs.topology",
    "graphs.mixing",
    "graphs.spectral_gap",
    "rng",
    "objectives.build",
    "objectives.eval",
    "oracle",
    "algorithms.run",
    "algorithms.step",
    "metrics.record",
    "metrics.aggregate",
)
_ID = {name: k for k, name in enumerate(SPAN_NAMES)}

#: Maximum nesting depth searched when testing span ancestry.
_MAX_DEPTH = 32


class Patches:
    """Reversible attribute and mapping replacements."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((setattr, owner, name, old))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def replace_function(self, current, replacement):
        """Point every ``zojade`` module global that is `current` at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "zojade" or modname.startswith("zojade.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is current:
                    self.set(module, attr, replacement)

    def restore(self):
        while self._undo:
            setter, owner, name, old = self._undo.pop()
            setter(owner, name, old)


class Tracer:
    """Span store: one row per call, parent links by row index."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work1 = array("d")
        self.work2 = array("d")
        self._stack = [-1]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work1.append(0.0)
        self.work2.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return `fn` recorded as a span; `post(state, args, out)` gives the work counters."""
        name_id = _ID[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args) if pre is not None else None
            idx = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                tracer.work1[idx], tracer.work2[idx] = post(state, args, out)
            return out

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "work1": np.frombuffer(self.work1, dtype=float),
            "work2": np.frombuffer(self.work2, dtype=float),
        }

    def save(self, path: str) -> None:
        """Write the span table as a compressed ``.npz`` with the name table."""
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


def inside(names: np.ndarray, parent: np.ndarray, ancestor: str) -> np.ndarray:
    """Mask of spans that have a span named `ancestor` above them."""
    target = _ID[ancestor]
    found = np.zeros(len(names), dtype=bool)
    up = parent.copy()
    for _ in range(_MAX_DEPTH):
        live = up >= 0
        if not live.any():
            break
        found[live] |= names[up[live]] == target
        up[live] = parent[up[live]]
    return found


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics of one traced rep, keyed by metric name (values in SI units)."""
    names, parent = spans["name"], spans["parent"]
    w1, w2 = spans["work1"], spans["work2"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, dur)
    parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)

    def sel(name):
        return names == _ID[name]

    oracle = sel("oracle")
    evals = sel("objectives.eval") & (parent_name == _ID["oracle"])
    build = sel("objectives.build")
    outer_build = build & ~inside(names, parent, "objectives.build")
    rng = sel("rng")
    steps = sel("algorithms.step")
    step_ms = dur[steps] * 1e3
    csv = sel("harness.csv")
    eval_calls = int(evals.sum())
    eval_rows = float(w1[evals].sum())
    return {
        "oracle.calls": int(oracle.sum()),
        "oracle.queries": int(w1[oracle].sum()),
        "oracle.self_s": float(own[oracle].sum()),
        "oracle.probe_bytes_computed": int(w2[oracle].sum()),
        "objectives.eval_calls": eval_calls,
        "objectives.eval_rows": int(eval_rows),
        "objectives.rows_per_call": eval_rows / eval_calls if eval_calls else 0.0,
        "objectives.eval_s": float(dur[evals].sum()),
        "objectives.eval_bytes_computed": int(w2[evals].sum()),
        "objectives.build_s": float(
            dur[outer_build].sum() - dur[rng & inside(names, parent, "objectives.build")].sum()
        ),
        "rng.calls": int(rng.sum()),
        "rng.draws": int(w1[rng].sum()),
        "rng.self_s": float(own[rng].sum()),
        "graphs.topology_s": float(own[sel("graphs.topology")].sum()),
        "graphs.mixing_s": float(own[sel("graphs.mixing")].sum()),
        "graphs.spectral_gap_calls": int(sel("graphs.spectral_gap").sum()),
        "graphs.spectral_gap_s": float(dur[sel("graphs.spectral_gap")].sum()),
        "algorithms.steps": int(steps.sum()),
        "algorithms.step_self_s": float(own[steps].sum()),
        "algorithms.step_ms_p50": float(np.percentile(step_ms, 50)) if step_ms.size else 0.0,
        "algorithms.step_ms_p99": float(np.percentile(step_ms, 99)) if step_ms.size else 0.0,
        "algorithms.clamp_count": int(w1[steps].sum()),
        "metrics.record_calls": int(sel("metrics.record").sum()),
        "metrics.record_s": float(dur[sel("metrics.record")].sum()),
        "metrics.aggregate_s": float(dur[sel("metrics.aggregate")].sum()),
        "harness.config_s": float(own[sel("harness.config")].sum()),
        "harness.csv_files": int(csv.sum()),
        "harness.csv_bytes": int(w1[csv].sum()),
        "harness.csv_write_s": float(dur[csv].sum()),
    }


def self_time_by_span(spans: dict) -> dict:
    """Call count, total and self seconds for every span name that occurred."""
    names, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, dur)
    out = {}
    for name_id, name in enumerate(SPAN_NAMES):
        mask = names == name_id
        if mask.any():
            out[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
    return out


def _model_bytes(model) -> int:
    return sum(v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray))


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Record spans at every layer boundary of the loaded ``zojade`` package."""
    from zojade import algorithms, graphs, harness, metrics, objectives, oracle, rng

    def swap(fn, name, pre=None, post=None):
        patches.replace_function(fn, tracer.wrap(name, fn, pre, post))

    # oracle: queries from the objective's own counter, probe rows of d doubles
    def oracle_pre(args):
        return args[0].query_count

    def oracle_post(before, args, out):
        queries = args[0].query_count - before
        return queries, queries * args[0].dim * 8

    for fn in (oracle.estimate_both, oracle.estimate_gradient, oracle.estimate_hessian_diag):
        swap(fn, "oracle", oracle_pre, oracle_post)

    # objectives: value_many is bound when an objective is wrapped, so patch the
    # classes before the rep builds its instance
    model_bytes: dict = {}

    def eval_post(_, args, out):
        model, X = args[0], args[1]
        key = id(model)
        if key not in model_bytes:
            model_bytes[key] = (model, _model_bytes(model))
        rows = X.shape[0] if getattr(X, "ndim", 1) == 2 else 1
        return rows, getattr(X, "nbytes", 0) + model_bytes[key][1] + out.nbytes

    for cls in (objectives.QuadraticObjective, objectives.LogisticObjective,
                objectives.QuarticObjective):
        patches.set(cls, "value_many", tracer.wrap("objectives.eval", cls.value_many,
                                                  post=eval_post))
    for fn in (objectives.separable_quadratic_instance, objectives.ridge_synthetic,
               objectives.ridge_instance_from_shards, objectives.synthetic_classification,
               objectives.logistic_instance, objectives.quartic_instance):
        swap(fn, "objectives.build")

    # rng: array and scalar draws made from outside the generator; while one
    # is running the originals are reinstated so inner draws run untraced
    gen = rng.Xoshiro256
    originals = {m: gen.__dict__[m] for m in ("normal", "uniform", "normals", "uniforms")}
    wrapped = {}

    def rng_method(method):
        fn = originals[method]
        name_id = _ID["rng"]

        @functools.wraps(fn)
        def traced(self, *shape):
            for m, f in originals.items():
                setattr(gen, m, f)
            idx = tracer.open(name_id)
            try:
                out = fn(self, *shape)
            finally:
                tracer.close(idx)
                for m, f in wrapped.items():
                    setattr(gen, m, f)
            tracer.work1[idx] = out.size if isinstance(out, np.ndarray) else 1
            return out

        return traced

    for method in originals:
        wrapped[method] = rng_method(method)
        patches.set(gen, method, wrapped[method])

    # graphs
    swap(graphs.topology_from_spec, "graphs.topology")
    swap(graphs.metropolis_hastings, "graphs.mixing")
    swap(graphs.spectral_gap, "graphs.spectral_gap")

    # algorithms: run() looks step functions up in the ALGORITHMS table
    def step_pre(args):
        return args[0].clamp_count

    def step_post(before, args, out):
        return out.clamp_count - before, 0.0

    steps = {}
    for key, (step_fn, cost_fn) in list(algorithms.ALGORITHMS.items()):
        steps[step_fn] = tracer.wrap("algorithms.step", step_fn, step_pre, step_post)
        patches.set_item(algorithms.ALGORITHMS, key, (steps[step_fn], cost_fn))
    for step_fn, traced_step in steps.items():
        patches.replace_function(step_fn, traced_step)
    swap(algorithms.run, "algorithms.run")

    # metrics
    swap(metrics.loss_metric, "metrics.record")
    swap(metrics.aggregate_traces, "metrics.aggregate")

    # harness: config parsing, set-up entry points (already timed by the
    # workload), and CSV writers with the size of the file they wrote
    config_cls = harness.ExperimentConfig
    patches.set(config_cls, "__init__", tracer.wrap("harness.config", config_cls.__init__))
    from_file = config_cls.__dict__["from_file"].__func__
    patches.set(config_cls, "from_file", classmethod(tracer.wrap("harness.config", from_file)))
    swap(harness.build_topology, "harness.setup")
    swap(harness.build_instance, "harness.setup")

    def csv_post(_, args, out):
        return os.path.getsize(args[0]), 0.0

    swap(harness.write_trace_csv, "harness.csv", post=csv_post)
    swap(harness.write_aggregate_csv, "harness.csv", post=csv_post)
