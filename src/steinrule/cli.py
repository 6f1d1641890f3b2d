"""Command-line entry point: simulate sweeps, verify the inequality suite,
analyze a data file, or print a single combined estimate."""

import argparse
import json
import sys

import numpy as np

from .analysis import (
    DataError,
    bootstrap_efficiency,
    correlation_table,
    load_csv,
    matrix_text,
    point_estimates,
)
from .distributions import EllipticalSpec
from .risk_bounds import (
    RESTRICTED_ROWS,
    _stream,
    biased_instance,
    check_courant,
    elliptical_suite,
    gaussian_suite,
    identity_instance,
    restricted_instance,
    singular_suite,
)
from .shrinkage import EstimatorDef, HFunction
from .simulation import ConfigError, SimConfig, gamma_sweep, run_sweep


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
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
    if args.k < 1:
        print("error: --k must be at least 1", file=sys.stderr)
        return 2
    if args.k <= 2 and not args.allow_divergent:
        print("k <= 2 makes the inverse moments divergent; "
              "pass --allow-divergent to proceed", file=sys.stderr)
        return 2
    restricted = None
    if args.singular is not None:
        if not 1 <= args.singular <= args.k:
            print(f"error: --singular must lie in 1..{args.k}", file=sys.stderr)
            return 2
        if args.k >= RESTRICTED_ROWS:
            print(f"error: --singular needs --k below {RESTRICTED_ROWS}, "
                  f"the restricted instance's row count", file=sys.stderr)
            return 2
        restricted = restricted_instance(k=args.k, q=args.singular)
    # every section is built before the one pass draws, so a refusal
    # draws nothing
    seed, biased = args.seed, biased_instance(args.k)
    sections = {"identity": gaussian_suite(identity_instance(args.k), "identity", seed),
                "biased": gaussian_suite(biased, "biased", seed)}
    if args.elliptical is not None:
        sections["elliptical"] = elliptical_suite(
            biased, EllipticalSpec.gamma_mixture(args.elliptical),
            f"biased/gamma-nu{args.elliptical:g}", seed)
    if restricted is not None:
        sections["singular"] = singular_suite(
            restricted, f"restricted-q{args.singular}", seed)
    sections = dict(zip(sections, _stream(list(sections.values()), args.samples)))
    # fixed nonsymmetric matrix with mixed-sign entries
    courant_matrix = np.arange(1.0, 1.0 + args.k * args.k).reshape(args.k, args.k)
    courant_matrix[0, -1] *= -1.0
    sections["courant"] = check_courant(courant_matrix, 10_000, seed)

    ok = True
    for label, reports in sections.items():
        for rep in reports:
            ok = ok and rep.holds
            print(f"[{label}] {rep}")
    print("all bounds hold" if ok else "BOUND VIOLATION")
    return 0 if ok else 1


def _split_covariates(arg):
    names = [nm.strip() for nm in arg.split(",") if nm.strip()]
    if not names:
        raise DataError("no covariate names given")
    return names


def cmd_analyze(args):
    data = load_csv(args.data).select(args.response,
                                      _split_covariates(args.covariates))
    table = correlation_table(data)
    # the report first, so a refused run prints nothing to stdout
    report = bootstrap_efficiency(data, B=args.bootstrap, seed=args.seed)
    print("correlations:")
    print(matrix_text(table.names, table.r))
    print("p-values:")
    print(matrix_text(table.names, table.p))
    print(report)
    if args.bootstrap < 1000:
        print(f"note: B={args.bootstrap} gives wide bootstrap standard errors")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_estimate(args):
    data = load_csv(args.data).select(args.response,
                                      _split_covariates(args.covariates))
    if args.h == "zero":
        h = HFunction.zero()
    elif args.h == "one":
        h = HFunction.one()
    elif args.h == "smooth-inverse":
        h = HFunction.smooth_inverse(args.p)
    else:
        h = HFunction.inverse_sq_norm()
    c = None if args.c == "auto" else float(args.c)
    est = EstimatorDef("estimate", h, c)
    for nm, vec in point_estimates(data, est).items():
        print(f"{nm}: " + " ".join(f"{v:.6g}" for v in vec))
    return 0
