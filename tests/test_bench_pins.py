"""The shipped configs reach their e_f thresholds at the query counts that
bench/pinned.json pins for the benchmark's paper_n20 and scale_n200 workloads.

The benchmark checks these pins only when it runs; this test puts them in
the suite, so a change to a loss or the algorithms that moves a run's
queries-to-threshold fails here.  The configs are also run under numpy's
AVX2 dispatch, whose exp and log1p move the logistic configs' bytes but not
their pins.  The pin file is read, never written.
"""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from zojade import ExperimentConfig, harness, queries_to_threshold

ROOT = Path(__file__).resolve().parents[1]

# workload, config key, config path and the e_f threshold the workload pins it at
QUICKSTART = ("paper_n20", "quickstart", "configs/quickstart.json", 1e-6)
LOGISTIC = ("paper_n20", "logistic", "configs/logistic.json", 1e-4)
SCALE_N200 = ("scale_n200", "scale_n200", "bench/scale_n200.json", 1e-4)


def _pinned(workload, key):
    pins = json.loads((ROOT / "bench" / "pinned.json").read_text(encoding="utf-8"))
    return {
        label: {seed: math.inf if q is None else q for seed, q in by_seed.items()}
        for label, by_seed in pins[workload]["queries_to_threshold"][key].items()
    }


def _rows(path, out_dir):
    """(queries per agent, e_f) of every recorded row, by label and seed."""
    result = harness.run_experiment(ExperimentConfig.from_file(str(path)), out_dir=str(out_dir),
                                    quiet=True)
    return {label: {str(seed): [(row.queries_per_agent, row.e_f) for row in trace.rows]
                    for seed, trace in runs.items()}
            for label, runs in result.traces.items()}


def _reached(rows, threshold):
    return {label: {seed: next((q for q, e_f in trace if e_f <= threshold), math.inf)
                    for seed, trace in runs.items()}
            for label, runs in rows.items()}


@pytest.mark.parametrize("workload, key, path, threshold", [QUICKSTART, LOGISTIC, SCALE_N200],
                         ids=["quickstart", "logistic", "scale_n200"])
def test_config_meets_the_pinned_queries_to_threshold(tmp_path, workload, key, path, threshold):
    cfg = ExperimentConfig.from_file(str(ROOT / path))
    result = harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
    got = {
        label: {str(seed): queries_to_threshold(trace, threshold) for seed, trace in runs.items()}
        for label, runs in result.traces.items()
    }
    assert got == _pinned(workload, key)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="numpy's X86_V3 and X86_V4 targets exist on x86-64 only")
@pytest.mark.parametrize("workload, key, path, threshold, bound", [
    (*QUICKSTART, 0.0), (*LOGISTIC, 1e-11), (*SCALE_N200, 1e-11),
], ids=["quickstart", "logistic", "scale_n200"])
def test_a_run_under_numpys_x86_v3_dispatch_keeps_the_pins_and_e_f(
    tmp_path, workload, key, path, threshold, bound
):
    # numpy's AVX2 kernels in place of its AVX-512 ones move the logistic
    # family's exp and log1p, so the bytes of both logistic configs' traces
    # move; the largest |delta e_f| measured is 1.8e-12 (logistic) and 7.1e-14
    # (scale_n200, whose probes come from the centers), and the pins hold.
    # The quickstart ridge, whose probes come from the centers too, runs no
    # transcendental function: its measured |delta e_f| is 0
    script = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[3]); "
              "from test_bench_pins import _rows; "
              "print(json.dumps(_rows(Path(sys.argv[1]), sys.argv[2])))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, str(ROOT / path),
                           str(tmp_path / "v3"), str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, check=True)
    there = json.loads(done.stdout)
    here = _rows(ROOT / path, tmp_path / "here")
    assert _reached(there, threshold) == _pinned(workload, key)
    assert there.keys() == here.keys()
    for label, runs in here.items():
        assert runs.keys() == there[label].keys()
        for seed, rows in runs.items():
            assert [q for q, _ in there[label][seed]] == [q for q, _ in rows]
            worst = max(abs(a - b) for (_, a), (_, b) in zip(rows, there[label][seed]))
            assert worst <= bound, f"{label} seed {seed}: |delta e_f| = {worst:.3g}"
