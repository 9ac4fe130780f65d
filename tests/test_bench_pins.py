"""The shipped configs reach their e_f thresholds at the query counts that
bench/pinned.json pins for the benchmark's paper_n20 and scale_n200 workloads.

The benchmark checks these pins only when it runs; this test puts them in
the suite, so a change to a loss or the algorithms that moves a run's
queries-to-threshold fails here.  The configs are also run under numpy's
AVX2 dispatch, whose exp and log1p move the logistic configs' bytes but not
their pins.  The pin file is read, never written.

Each config runs in-process once, for both tests, and its dispatch run
starts in a subprocess as the module starts, so that on two cores it runs
beside the in-process runs; on one core only the shared in-process rows
save time.
"""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from zojade import ExperimentConfig, harness

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
    return {label: {str(seed): list(zip(trace.rows["queries_per_agent"].tolist(),
                                        trace.rows["e_f"].tolist()))
                    for seed, trace in runs.items()}
            for label, runs in result.traces.items()}


def _reached(rows, threshold):
    return {label: {seed: next((q for q, e_f in trace if e_f <= threshold), math.inf)
                    for seed, trace in runs.items()}
            for label, runs in rows.items()}


CONFIGS = {"quickstart": QUICKSTART, "logistic": LOGISTIC, "scale_n200": SCALE_N200}
X86_64 = platform.machine() in ("x86_64", "AMD64")
DISPATCH_TEST = "test_a_run_under_numpys_x86_v3_dispatch_keeps_the_pins_and_e_f"


@pytest.fixture(scope="module", autouse=True)
def runs_under_x86_v3(request, tmp_path_factory):
    """config id -> a `-W error` subprocess that prints the config's rows under
    numpy's AVX2 dispatch, started as the module starts for each selected
    dispatch test, so that it runs beside the in-process rows."""
    wanted = [item.callspec.id for item in request.session.items
              if getattr(item, "originalname", None) == DISPATCH_TEST] if X86_64 else []
    script = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[3]); "
              "from test_bench_pins import _rows; "
              "print(json.dumps(_rows(Path(sys.argv[1]), sys.argv[2])))")
    # one BLAS thread each, so that the subprocesses' pools do not compete for
    # the cores with the in-process rows
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    procs = {}

    def stop():
        for proc in procs.values():
            if proc.returncode is None:
                proc.kill()
                proc.communicate()

    request.addfinalizer(stop)
    for config in wanted:
        procs[config] = subprocess.Popen(
            [sys.executable, "-W", "error", "-c", script, str(ROOT / CONFIGS[config][2]),
             str(tmp_path_factory.mktemp("v3")), str(Path(__file__).parent)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return procs


@pytest.fixture(scope="module")
def rows_here(tmp_path_factory):
    """config path -> its in-process rows, run once for both tests."""
    done = {}

    def rows(path):
        if path not in done:
            done[path] = _rows(ROOT / path, tmp_path_factory.mktemp("here"))
        return done[path]

    return rows


@pytest.mark.parametrize("workload, key, path, threshold", list(CONFIGS.values()),
                         ids=list(CONFIGS))
def test_config_meets_the_pinned_queries_to_threshold(rows_here, workload, key, path, threshold):
    assert _reached(rows_here(path), threshold) == _pinned(workload, key)


@pytest.mark.skipif(not X86_64, reason="numpy's X86_V3 and X86_V4 targets exist on x86-64 only")
@pytest.mark.parametrize("workload, key, path, threshold, bound", [
    (*QUICKSTART, 0.0), (*LOGISTIC, 1e-11), (*SCALE_N200, 1e-11),
], ids=list(CONFIGS))
def test_a_run_under_numpys_x86_v3_dispatch_keeps_the_pins_and_e_f(
    runs_under_x86_v3, rows_here, request, workload, key, path, threshold, bound
):
    # numpy's AVX2 kernels in place of its AVX-512 ones move the logistic
    # family's exp and log1p, so the bytes of both logistic configs' traces
    # move; the largest |delta e_f| measured is 1.8e-12 (logistic) and 7.1e-14
    # (scale_n200, whose probes come from the centers), and the pins hold.
    # The quickstart ridge, whose probes come from the centers too, runs no
    # transcendental function: its measured |delta e_f| is 0
    proc = runs_under_x86_v3[request.node.callspec.id]
    stdout, stderr = proc.communicate()
    assert proc.returncode == 0, stderr
    there = json.loads(stdout)
    here = rows_here(path)
    assert _reached(there, threshold) == _pinned(workload, key)
    assert there.keys() == here.keys()
    for label, runs in here.items():
        assert runs.keys() == there[label].keys()
        for seed, rows in runs.items():
            assert [q for q, _ in there[label][seed]] == [q for q, _ in rows]
            worst = max(abs(a - b) for (_, a), (_, b) in zip(rows, there[label][seed]))
            assert worst <= bound, f"{label} seed {seed}: |delta e_f| = {worst:.3g}"
