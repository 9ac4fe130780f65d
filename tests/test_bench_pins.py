"""The shipped logistic config reaches its e_f threshold at the query counts
that bench/pinned.json pins for the benchmark's paper_n20 workload.

The benchmark checks these pins only when it runs; this test puts them in
the suite, so a change to the logistic loss or the algorithms that moves a
run's queries-to-threshold fails here.  The pin file is read, never written.
"""

import json
import math
from pathlib import Path

from zojade import ExperimentConfig, harness, queries_to_threshold

ROOT = Path(__file__).resolve().parents[1]
THRESHOLD = 1e-4  # the e_f threshold paper_n20 pins the logistic config at


def test_logistic_config_meets_the_pinned_queries_to_threshold(tmp_path):
    pins = json.loads((ROOT / "bench" / "pinned.json").read_text(encoding="utf-8"))
    pinned = pins["paper_n20"]["queries_to_threshold"]["logistic"]
    cfg = ExperimentConfig.from_file(str(ROOT / "configs" / "logistic.json"))
    result = harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
    got = {
        label: {str(seed): queries_to_threshold(trace, THRESHOLD) for seed, trace in runs.items()}
        for label, runs in result.traces.items()
    }
    want = {
        label: {seed: math.inf if q is None else q for seed, q in by_seed.items()}
        for label, by_seed in pinned.items()
    }
    assert got == want
