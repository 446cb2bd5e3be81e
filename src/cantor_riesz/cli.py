"""Command line front end.

Exit codes: 0 success, 1 a hard numeric check failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ._version import __version__
from .config import ExperimentConfig, LambdaSpec
from .errors import ConfigError
from .experiments import (
    run_capacity_report,
    run_profile_report,
    run_ratio_experiment,
    run_stopping_report,
    run_sweep,
    run_wolff_report,
    write_report,
)

# report commands: the runner whose table write_report saves under the name
_RUNNERS = {
    "profile": run_profile_report,
    "ratio": run_ratio_experiment,
    "stopping": run_stopping_report,
    "wolff": run_wolff_report,
    "capacity": run_capacity_report,
}
_COMMANDS = (*_RUNNERS, "sweep")


def parse_lambda(text: str) -> LambdaSpec:
    """``0.25`` constant | ``0.2,0.45`` explicit | ``0.05..0.45`` random."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return LambdaSpec.random(float(lo), float(hi))
        if "," in text:
            return LambdaSpec.explicit(float(v) for v in text.split(","))
        return LambdaSpec.constant(float(text))
    except ValueError as exc:
        raise ConfigError(f"cannot parse lambda spec {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-riesz",
        description="Riesz transforms, capacities, and stopping-scale reports "
        "for corner Cantor measures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "profile": "per-generation side lengths, densities, and potentials",
        "ratio": "transform energy vs density sum over a depth sweep",
        "stopping": "stopping-scale classification and inequality report",
        "wolff": "shell-sum vs discrete Wolff potentials at sampled points",
        "capacity": "capacity formulas and the positive-measure lower bound",
        "sweep": "all of the above into one output directory",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", metavar="FILE", help="JSON config file")
        p.add_argument("--d", type=int, help="ambient dimension override")
        p.add_argument("--s", type=float, help="kernel order override")
        p.add_argument("--N", type=int, help="single depth override")
        p.add_argument(
            "--lambda", dest="lam", metavar="SPEC",
            help="ratio override: X constant, X,Y,... explicit, LO..HI random",
        )
        p.add_argument("--refine-k", type=int, dest="refine_k",
                       help="atoms per leaf axis override")
        p.add_argument("--eps", type=float, help="kernel truncation override")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel case evaluation (default 1)")
        if name == "stopping":
            p.add_argument(
                "--theta", metavar="LIST",
                help="comma-separated density override, bypassing geometry",
            )
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    changes = {}
    if args.d is not None:
        changes["d"] = args.d
    if args.s is not None:
        changes["s"] = args.s
    if args.N is not None:
        if args.N < 0:
            raise ConfigError(f"--N must be nonnegative, got {args.N}")
        changes["depths"] = (args.N,)
    if args.lam is not None:
        changes["lam"] = parse_lambda(args.lam)
    if args.refine_k is not None:
        changes["refine_k"] = args.refine_k
    if args.eps is not None:
        changes["eps"] = args.eps
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.out is not None:
        changes["out_dir"] = args.out
    if getattr(args, "theta", None) is not None:
        try:
            changes["theta_override"] = tuple(
                float(v) for v in args.theta.split(",")
            )
        except ValueError as exc:
            raise ConfigError(f"cannot parse --theta {args.theta!r}: {exc}") from exc
    try:
        return dataclasses.replace(cfg, **changes)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _dispatch(command: str, cfg: ExperimentConfig, workers: int) -> int:
    status = 0
    if command == "sweep":
        result = run_sweep(cfg, workers=workers)
        written = result["written"]
        if not result["manifest"]["all_hard_pass"]:
            print("hard check failed during sweep (see stopping.json)",
                  file=sys.stderr)
            status = 1
    else:
        table = _RUNNERS[command](cfg, workers=workers)
        written = write_report(command, table, cfg, cfg.out_dir)
        if command == "stopping" and not table["all_hard_pass"]:
            for rec in table["cases"]:
                if not rec["hard_pass"]:
                    print(
                        f"hard check failed: case {rec['case_id']} "
                        f"({', '.join(rec['failures'])})",
                        file=sys.stderr,
                    )
            status = 1
    for path in written:
        print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args.command, cfg, max(1, args.workers))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"hard check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
