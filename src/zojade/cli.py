"""Command-line entry point.

    zojade run --config exp.json [--out DIR] [--seeds 1,2,3]
    zojade verify [--config exp.json]
    zojade rate --trace trace.csv [--tail 0.5]

Exit codes: 0 success, 1 run or analysis failure, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import PROB, ConfigurationError, ZojadeError, require
from .harness import ExperimentConfig, read_trace_csv, run_experiment, verify_suite
from .metrics import fit_exponential_rate

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_VERIFY_FAILURE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zojade")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed override")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--config", default=None)

    p_rate = sub.add_parser("rate", help="fit an exponential rate to a trace CSV")
    p_rate.add_argument("--trace", required=True)
    p_rate.add_argument("--tail", type=float, default=0.5)
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    seeds = None
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError as exc:
            raise ConfigurationError(f"bad --seeds value: {exc}") from exc
    result = run_experiment(cfg, out_dir=args.out, seeds=seeds)
    if not result.ok:
        for label, seed, diagnostic in result.failures:
            print(f"FAILED {label} seed {seed}: {diagnostic}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = ExperimentConfig.from_file(args.config) if args.config else None
    report = verify_suite(cfg)
    print(report.to_json())
    for check in report.checks:
        status = "PASS" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"[{status}] {check['name']}{detail}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILURE


def _cmd_rate(args) -> int:
    require(PROB, **{"--tail": args.tail})
    iterations, efs = read_trace_csv(args.trace)
    try:
        rate, r_squared = fit_exponential_rate(iterations, efs, tail_fraction=args.tail)
    except ValueError as exc:
        print(f"rate fit failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"rate_per_iteration={rate!r} r_squared={r_squared!r}")
    return EXIT_OK


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rate(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ZojadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
