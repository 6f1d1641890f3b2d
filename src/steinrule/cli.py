"""Command-line entry point: simulate sweeps, verify the inequality suite,
analyze a data file, or print a single combined estimate."""

import argparse
import sys

import numpy as np

from .analysis import (
    bootstrap_efficiency,
    correlation_table,
    load_csv,
    matrix_text,
    point_estimates,
)
from .distributions import EllipticalSpec
from .risk_bounds import bound_suite, check_courant
from .shrinkage import INVERSE_SQ_NORM, WEIGHT_KINDS, EstimatorDef
from .simulation import ConfigError, SimConfig, gamma_sweep, run_sweep


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="steinrule",
        description="Combined (shrinkage) estimators for linear regression: "
                    "risk sweeps, inequality verification, data analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a sweep from a JSON config")
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify-bounds",
                         help="run the inequality checks and report each")
    ver.add_argument("--k", type=int, default=3, help="instance dimension")
    ver.add_argument("--samples", type=int, default=100_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--elliptical", type=float, metavar="NU", default=None,
                     help="also check the gamma-mixture caps at this nu")
    ver.add_argument("--singular", type=int, metavar="Q", default=None,
                     help="also check the restricted case at this rank")
    ver.add_argument("--allow-divergent", action="store_true",
                     help="run even where the inverse moments diverge")
    ver.set_defaults(func=cmd_verify_bounds)

    ana = sub.add_parser("analyze", help="correlations, estimates, bootstrap")
    ana.add_argument("--data", required=True)
    ana.add_argument("--response", required=True)
    ana.add_argument("--covariates", required=True,
                     help="comma-separated column names")
    ana.add_argument("--bootstrap", type=int, default=5000, metavar="B")
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--out", default=None, help="write the JSON report here")
    ana.set_defaults(func=cmd_analyze)

    est = sub.add_parser("estimate", help="print one combined estimate")
    est.add_argument("--data", required=True)
    est.add_argument("--response", required=True)
    est.add_argument("--covariates", required=True)
    est.add_argument("--h", default="inverse-sq",
                     choices=["zero", "one", "inverse-sq", "smooth-inverse"])
    est.add_argument("--p", type=float, default=2.0,
                     help="exponent for the smooth inverse weight")
    est.add_argument("--c", default="auto",
                     help="multiplier, or 'auto' for the data-driven value")
    est.set_defaults(func=cmd_estimate)
    return parser


def cmd_simulate(args):
    with open(args.config) as fh:
        config = SimConfig.from_json(fh.read())
    result = gamma_sweep(config) if config.gamma_norms else run_sweep(config)
    result.to_csv(args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def cmd_verify_bounds(args):
    # the one rule of the command's own; bound_suite judges every input
    if 1 <= args.k <= 2 and not args.allow_divergent:
        print("k <= 2 makes the inverse moments divergent; "
              "pass --allow-divergent to proceed", file=sys.stderr)
        return 2
    restricted = None if args.singular is None else (args.k, args.singular)
    mixing = (() if args.elliptical is None
              else (EllipticalSpec.gamma_mixture(args.elliptical),))
    sections = bound_suite(args.samples, args.seed, args.k, mixing, restricted)
    # fixed nonsymmetric matrix with mixed-sign entries
    courant_matrix = np.arange(1.0, 1.0 + args.k * args.k).reshape(args.k, args.k)
    courant_matrix[0, -1] *= -1.0
    sections.append(("courant", check_courant(courant_matrix, 10_000, args.seed)))

    ok = True
    for label, reports in sections:
        for rep in reports:
            ok = ok and rep.holds
            print(f"[{label}] {rep}")
    print("all bounds hold" if ok else "BOUND VIOLATION")
    return 0 if ok else 1


def _dataset(args):
    names = [nm.strip() for nm in args.covariates.split(",") if nm.strip()]
    return load_csv(args.data).select(args.response, names)


def cmd_analyze(args):
    data = _dataset(args)
    table = correlation_table(data)
    # the report and its file first, so a refused run prints nothing to stdout
    report = bootstrap_efficiency(data, B=args.bootstrap, seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    print("correlations:")
    print(matrix_text(table.names, table.r))
    print("p-values:")
    print(matrix_text(table.names, table.p))
    print(report)
    if args.bootstrap < 1000:
        print(f"note: B={args.bootstrap} gives wide bootstrap standard errors")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_estimate(args):
    data = _dataset(args)
    make, keys = WEIGHT_KINDS[INVERSE_SQ_NORM if args.h == "inverse-sq" else args.h]
    h = make(*(getattr(args, key) for key in keys))
    c = None if args.c == "auto" else float(args.c)
    est = EstimatorDef("estimate", h, c)
    for nm, vec in point_estimates(data, est).items():
        print(f"{nm}: " + " ".join(f"{v:.6g}" for v in vec))
    return 0
