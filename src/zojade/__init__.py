"""Decentralized zeroth-order optimization with tracked curvature.

Agents cooperatively minimize the mean of black-box local costs by
combining central-difference derivative estimates (gradient plus Hessian
diagonal from 2d + 1 queries) with consensus tracking of the resulting
per-coordinate parabola statistics, yielding a Jacobi-type descent over a
peer-to-peer network.  The package also ships two gradient-only
baselines, ground-truth problem builders, an experiment harness with CSV
output, and a verification suite for the method's quantitative bounds.
"""

from .algorithms import (
    ALGORITHMS,
    BaselineConfig,
    JadeConfig,
    consensus_gd_step,
    draw_initial_iterates,
    gradient_tracking_step,
    initial_state,
    jade_step,
    run,
)
from .errors import (
    ConfigurationError,
    EvaluationError,
    InstanceConstructionError,
    ZojadeError,
)
from .graphs import (
    adjacency,
    check_weights,
    metropolis_hastings,
    spectral_gap,
    topology_from_spec,
)
from .harness import (
    ExperimentConfig,
    VerifyReport,
    build_instance,
    build_topology,
    gamma_mu_scaling_check,
    lyapunov_bounds_check,
    queries_to_threshold,
    read_trace_csv,
    run_experiment,
    solve_estimator_zero,
    verify_suite,
    write_aggregate_csv,
    write_trace_csv,
)
from .metrics import (
    RunTrace,
    aggregate_traces,
    ef_mode,
    fit_exponential_rate,
    loss_metric,
)
from .objectives import (
    LogisticObjective,
    ProblemInstance,
    QuadraticObjective,
    QuarticObjective,
    load_csv,
    logistic_instance,
    quartic_instance,
    ridge_instance_from_shards,
    ridge_synthetic,
    separable_quadratic_instance,
    shard_round_robin,
    standardize_features,
    synthetic_classification,
)
from .oracle import (
    BlackBoxObjective,
    SmoothnessConstants,
    admissible_mu,
    descent_coefficient,
    estimate_both,
    estimate_gradient,
    gradient_error_bound,
    gradient_lipschitz_bound,
    hessian_error_bound,
    mu2,
)
from .rng import Xoshiro256, splitmix64_stream

__version__ = "0.1.0"
