"""Run the benchmark over several seeds on every workload and summarise the spread.

    python3 bench/baseline.py --runs 10 --out bench/BENCH_0.json

Run from the repository root.  Each run is a separate ``bench/run.py``
process started exactly as BENCHMARK.json's command, with the run length
from ``run_seconds``.  Runs alternate between workloads (round r starts at
workload r mod 3), so a slow phase of the host falls on all of them; run k
of every workload uses seed k (1-based).  After the untraced runs,
one traced run per workload at the default seed gives the per-layer
metrics.

For each end-to-end metric the script prints the median of the run
values, their quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound.
It exits non-zero when a run fails a check or a spread exceeds its bound.
With ``--out`` it writes the results, with the environment block of the
first run, as a ``BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: A run may take one rep beyond run_seconds, plus start-up; anything longer is stuck.
RUN_TIMEOUT_S = 600


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2][len("detail "):])}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--out", default=None, help="write the results to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0]]
    command += spec["command"][1:]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    kernel_ms = {w: [] for w in workloads}
    host_wall = {w: [] for w in workloads}
    environment = None
    for k in range(args.runs):
        seed = k + 1
        for j in range(len(workloads)):
            workload = workloads[(k + j) % len(workloads)]
            out = run_once(command, workload, seed, seconds, 0)
            environment = environment or out["detail"]["environment"]
            metrics = out["result"]["metrics"]
            for m in bounds:
                values[workload][m].append(metrics[m]["value"])
            reps = out["detail"]["reps"]
            kernel_ms[workload].append(statistics.median(r["kernel_ms"] for r in reps))
            host_wall[workload].append(statistics.median(r["host_wall_s"] for r in reps))
            print(f"run {k + 1}/{args.runs} {workload} seed {seed}: "
                  + ", ".join(f"{m} {metrics[m]['value']:.6g}" for m in bounds), flush=True)

    layers = {}
    for workload in workloads:
        out = run_once(command, workload, 1, seconds, 1)
        layers[workload] = out["result"]["metrics"]
        print(f"traced {workload}: trace.overhead_s "
              f"{layers[workload]['trace.overhead_s']['value']:.4g}", flush=True)

    ok = True
    end_to_end = {}
    print(f"\n{'workload':<12} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in workloads:
        end_to_end[workload] = {}
        for m, meta in bounds.items():
            s = spread(values[workload][m])
            s.update(unit=meta["unit"], bound=meta["bound"])
            end_to_end[workload][m] = s
            flag = ""
            if s["spread"] > meta["bound"]:
                flag, ok = "  OVER BOUND", False
            elif s["spread"] > meta["bound"] / 3:
                flag = "  above bound/3"
            print(f"{workload:<12} {m:<14} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.4f} {meta['bound']:>6}{flag}")
        raw = spread(host_wall[workload])
        end_to_end[workload]["host_wall_s"] = raw
        print(f"{workload:<12} {'host_wall_s':<14} {raw['median']:>12.6g} {raw['q1']:>12.6g} "
              f"{raw['q3']:>12.6g} {raw['spread']:>7.4f}  (wall time before host-speed scaling)")
        print(f"{workload:<12} {'kernel_ms':<14} {statistics.median(kernel_ms[workload]):>12.4g}"
              f"  (host-speed kernel, median per run: "
              f"{', '.join(f'{c:.3f}' for c in kernel_ms[workload])})")

    if args.out:
        doc = {
            "environment": environment,
            "run_seconds": seconds,
            "runs": args.runs,
            "seeds": list(range(1, args.runs + 1)),
            "end_to_end": end_to_end,
            "kernel_ms": kernel_ms,
            "layers": layers,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
