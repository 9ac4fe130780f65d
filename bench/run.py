"""Benchmark command for zojade: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload paper_n20 --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process, one client, closed loop: a rep
starts when the previous one has returned.  With ``--trace 0`` the reps run
with tracing off and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced reps alternate (untraced first and last) and the
per-layer metrics of the traced reps are reported, plus the tracing
overhead.  Human-readable lines come first, then one ``detail`` JSON line
(environment, every rep, every sample count), and last the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Hooks, RunWorkload, make_workload, setup_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: BLAS thread pools are pinned to one thread before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Two untraced reps at least, so the CSV byte-identity check always has a pair.
MIN_UNTRACED_REPS = 2

#: After each untraced rep, set-up passes run until they have taken this share of
#: the rep's wall time (one pass at least).  A paper_n20 rep holds a single
#: 40 ms set-up in 11 s, so without them a run's setup_s is a median of 2 or 3.
SETUP_SHARE = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "oracle.calls": "count",
    "oracle.queries": "count",
    "oracle.self_s": "s",
    "oracle.probe_bytes_computed": "B",
    "objectives.eval_calls": "count",
    "objectives.eval_rows": "count",
    "objectives.rows_per_call": "rows/call",
    "objectives.eval_s": "s",
    "objectives.eval_bytes_computed": "B",
    "objectives.build_s": "s",
    "rng.calls": "count",
    "rng.draws": "count",
    "rng.self_s": "s",
    "graphs.topology_s": "s",
    "graphs.mixing_s": "s",
    "graphs.spectral_gap_calls": "count",
    "graphs.spectral_gap_s": "s",
    "algorithms.steps": "count",
    "algorithms.step_self_s": "s",
    "algorithms.step_ms_p50": "ms",
    "algorithms.step_ms_p99": "ms",
    "algorithms.clamp_count": "count",
    "metrics.record_calls": "count",
    "metrics.record_s": "s",
    "metrics.aggregate_s": "s",
    "harness.config_s": "s",
    "harness.csv_files": "count",
    "harness.csv_bytes": "B",
    "harness.csv_write_s": "s",
    "trace.overhead_s": "s",
}


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` in the checkout; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "zojade").rglob("*.py")))
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def summary(values: list) -> dict:
    """Median with its sample count and range."""
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def _rep_record(rep, kernel_s: float, traced: bool, setup_passes=()) -> dict:
    return {"traced": traced, "wall_s": rep.ref_wall_s, "setup_s": rep.ref_setup_s,
            "host_wall_s": rep.wall_s, "host_setup_s": rep.setup_s, "speed": rep.speed,
            "kernel_ms": kernel_s * 1e3, "setup_passes_s": list(setup_passes),
            "queries": rep.queries, "units": rep.units, "failed_units": rep.failed_units,
            "problems": rep.problems}


def _print_rep(k: int, rep, kernel_s: float, traced: bool) -> None:
    kind = "traced" if traced else "untraced"
    print(f"rep {k} ({kind}): wall {rep.ref_wall_s:.3f} s, setup {rep.ref_setup_s:.4f} s "
          f"(host {rep.wall_s:.3f} s and {rep.setup_s:.4f} s, kernel {kernel_s * 1e3:.3f} ms), "
          f"{rep.queries} queries, {rep.units - rep.failed_units}/{rep.units} ok", flush=True)
    for problem in rep.problems:
        print(f"  CHECK FAILED: {problem}", flush=True)


def cross_rep_problems(reps: list) -> list:
    """Every rep must write byte-identical outputs and count the same queries as the first."""
    problems = []
    for k, rep in enumerate(reps[1:], start=2):
        if rep.digest != reps[0].digest:
            problems.append(f"rep {k} outputs differ from rep 1 (sha256 {rep.digest[:12]} "
                            f"vs {reps[0].digest[:12]})")
        if rep.queries != reps[0].queries:
            problems.append(f"rep {k} counted {rep.queries} queries, rep 1 {reps[0].queries}")
    return problems


def end_to_end(reps: list, setup_passes: list, attempted: int, failed: int) -> dict:
    return {
        "wall_s": summary([r.ref_wall_s for r in reps]),
        "setup_s": summary([r.ref_setup_s for r in reps] + setup_passes),
        "queries_per_s": summary([r.queries_per_s for r in reps]),
        "peak_rss_mb": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "n": 1},
        "success_ratio": {"median": 1.0 - failed / attempted, "n": attempted},
    }


def measure(workload, hooks, seconds: float, trace: bool, spans_path: Path | None,
            warmup=None) -> dict:
    """Run reps for `seconds` and return metrics, per-rep records and check results.

    `warmup`, a small twin of the workload, runs once first and is not measured,
    so lazy set-up in the process does not land in the first rep.
    """
    from hostspeed import SpeedSampler
    from spans import Patches, Tracer, instrument, layer_metrics, self_time_by_span
    from zojade import harness

    untraced, traced, records, layers, setup_passes = [], [], [], [], []
    span_table = None
    sampler = SpeedSampler()
    hooks.clock = sampler.clock
    if warmup is not None:
        warmup.rep(hooks)
    start = time.perf_counter()

    def untraced_rep():
        with sampler:
            rep = workload.rep(hooks)
        rep.speed = sampler.factor()
        kernel_s = sampler.kernel_s()
        passes, host_s = [], 0.0
        while not passes or host_s < SETUP_SHARE * rep.wall_s:
            with sampler:
                pass_s = setup_pass(workload, hooks.clock)
            host_s += pass_s
            passes.append(pass_s * sampler.factor())
        setup_passes.extend(passes)
        untraced.append(rep)
        records.append(_rep_record(rep, kernel_s, False, passes))
        _print_rep(len(records), rep, kernel_s, False)

    def traced_rep():
        nonlocal span_table
        tracer, patches = Tracer(), Patches()
        instrument(tracer, patches)
        try:
            with sampler:
                rep = workload.rep(hooks, tracer)
            if isinstance(workload, RunWorkload):
                harness.spectral_gap(hooks.last_P)
        finally:
            patches.restore()
        rep.speed = sampler.factor()
        spans = tracer.arrays()
        metrics = layer_metrics(spans)
        for key, unit in PER_LAYER_UNITS.items():
            if unit in ("s", "ms") and key in metrics:
                metrics[key] *= rep.speed
        if metrics["oracle.queries"] != rep.queries:
            rep.problems.append(f"traced oracle.queries {metrics['oracle.queries']} != "
                                f"{rep.queries} counted by the objectives")
        if workload.expected_queries is not None and \
                metrics["oracle.queries"] != workload.expected_queries:
            rep.problems.append(f"traced oracle.queries {metrics['oracle.queries']} != "
                                f"precomputed {workload.expected_queries}")
        if rep.problems:
            rep.failed_units = rep.units
        if span_table is None:
            span_table = self_time_by_span(spans)
            if spans_path is not None:
                tracer.save(str(spans_path))
        traced.append(rep)
        layers.append(metrics)
        records.append(_rep_record(rep, sampler.kernel_s(), True))
        _print_rep(len(records), rep, sampler.kernel_s(), True)

    untraced_rep()
    while trace or len(untraced) < MIN_UNTRACED_REPS or time.perf_counter() - start < seconds:
        if trace:
            traced_rep()
        untraced_rep()
        if trace and time.perf_counter() - start >= seconds:
            break

    problems = [p for r in untraced + traced for p in r.problems]
    extra = cross_rep_problems(untraced + traced)
    problems += extra
    reps = untraced + traced
    attempted = sum(r.units for r in reps)
    failed = attempted if extra else sum(r.failed_units for r in reps)
    result = {"records": records, "problems": problems, "attempted": attempted,
              "failed": failed,
              "end_to_end": end_to_end(untraced, setup_passes, attempted, failed)}
    if trace:
        per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        per_layer["trace.overhead_s"] = (statistics.median(r.ref_wall_s for r in traced)
                                         - statistics.median(r.ref_wall_s for r in untraced))
        result["per_layer"] = per_layer
        result["spans"] = span_table
        result["traced_reps"] = len(traced)
    return result


def _fmt(value) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "zojade" / "__init__.py", ROOT / "configs" / "quickstart.json",
              ROOT / "configs" / "logistic.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: not a zojade checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from spans import Patches

    out_dir = BENCH_DIR / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tempfile.tempdir = str(work_dir)  # verify_suite's own temp files stay in the checkout
    patches = Patches()
    try:
        env = environment()
        print(f"zojade benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
        hooks = Hooks(patches)
        workload = make_workload(args.workload, args.seed, work_dir)
        (work_dir / "warmup").mkdir()
        warmup = make_workload(args.workload, args.seed, work_dir / "warmup", tiny=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        result = measure(workload, hooks, args.seconds, bool(args.trace), spans_path, warmup)
    finally:
        patches.restore()
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)

    rss_note = "; peak_rss_mb includes the traced reps" if args.trace else ""
    print(f"end-to-end (untraced reps{rss_note}):")
    for name, s in result["end_to_end"].items():
        spread = f", range {_fmt(s['min'])}..{_fmt(s['max'])}" if "min" in s else ""
        print(f"  {name:<16} {_fmt(s['median']):>14} {END_TO_END_UNITS[name]:<6} "
              f"(median, n={s['n']}{spread})")
    if args.trace:
        print(f"per-layer (median of {result['traced_reps']} traced rep(s)):")
        for name, value in result["per_layer"].items():
            print(f"  {name:<32} {_fmt(value):>14} {PER_LAYER_UNITS[name]}")
        print("spans of the first traced rep (calls, total s, self s):")
        for name, (calls, total, own) in result["spans"].items():
            print(f"  {name:<20} {calls:>9d} {total:>11.4f} {own:>11.4f}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")

    correct = not result["problems"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "reps": result["records"],
              "end_to_end": result["end_to_end"], "per_layer": result.get("per_layer"),
              "problems": result["problems"]}
    print("detail " + json.dumps(detail))
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": s["median"], "unit": END_TO_END_UNITS[k]}
                   for k, s in result["end_to_end"].items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"
    sys.exit(main())
