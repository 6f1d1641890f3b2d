"""The three benchmark workloads: inputs built from the workload seed, one
pass over the package, the output checks, and the work units a pass does.

This module imports nothing from numpy, scipy or steinrule at load time,
so that a set-up measurement can start its clock before `import steinrule`.
"""

import contextlib
import io
import json
import os

DEFAULT_SEED = 0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def padded_stride(dim):
    """Uniforms drawn per row: Philox pads `dim` to whole 4-word ticks."""
    return -(-dim // 4) * 4


class BoundSuite:
    """The paper's inequality suite: sampling- and memory-bound, the same
    Gaussian draw requested six times per instance."""

    name = "bound-suite"
    unit = "draws"
    COUNT = 250_000
    WARM_COUNT = 50_000

    def build(self, seed, root, warm=False):
        return {"count": self.WARM_COUNT if warm else self.COUNT, "seed": seed}

    def run(self, inputs):
        from steinrule import risk_bounds
        return risk_bounds.default_bound_suite(count=inputs["count"],
                                               seed=inputs["seed"])

    def check(self, inputs, reports):
        problems = [f"{r.name} violated: {r}" for r in reports if not r.holds]
        names = [r.name for r in reports]
        if names != _reference()["bound-suite"]["report_names"]:
            problems.append(f"report names differ from the pinned list: {names}")
        return problems

    def fingerprint(self, reports):
        return json.dumps([[r.name, r.lhs, r.rhs, r.holds, r.slack, r.tolerance]
                           for r in reports])

    def units(self, inputs):
        # 12 Gaussian, 2 elliptical and 1 singular sampler requests
        return 15 * inputs["count"]

    def sizes(self, inputs):
        count = inputs["count"]
        k, n_singular = 3, 25
        # largest live set of one sampler call: padded uniforms, normals, output
        gaussian = count * 8 * (padded_stride(2 * k) + 2 * k + 2 * k)
        singular = count * 8 * (padded_stride(n_singular) + 2 * n_singular + 4 * 4)
        return {"count": count, "sampler_requests": 15, "k": k,
                "singular_n": n_singular,
                "working_set_bytes": max(gaussian, singular)}


class Sweep:
    """One beta-norm sweep and one gamma-norm sweep at n=50, k=6: wide
    Gaussian rows and per-cell matrix products, no bound-suite code."""

    name = "sweep"
    unit = "cell-replications"
    REPS = 25_000
    WARM_REPS = 1_000
    N, K = 50, 6
    BETA_CELLS = 12
    GAMMA_NORMS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

    def build(self, seed, root, warm=False):
        import numpy as np
        from steinrule import shrinkage, simulation
        from steinrule.core_model import LinearRestriction
        from steinrule.distributions import EllipticalSpec

        reps = self.WARM_REPS if warm else self.REPS
        estimators = (
            shrinkage.spsl(),
            shrinkage.EstimatorDef("smooth-inverse-4",
                                   shrinkage.HFunction.smooth_inverse(4.0)),
            shrinkage.EstimatorDef("zero", shrinkage.HFunction.zero()),
        )
        beta = simulation.SimConfig(
            n=self.N, k=self.K, sigma=1.0, rho=0.5,
            beta_norms=tuple(np.geomspace(0.25, 64.0, self.BETA_CELLS)),
            replications=reps, seed=seed, estimators=estimators)
        gamma = simulation.SimConfig(
            n=self.N, k=self.K, sigma=1.0, rho=0.5, beta_norms=(1.0,),
            replications=reps, seed=seed, estimators=estimators,
            distribution=EllipticalSpec.gamma_mixture(5.0),
            competitor=LinearRestriction(np.eye(3, self.K), np.zeros(3)),
            gamma_norms=self.GAMMA_NORMS)
        return {"beta": beta, "gamma": gamma, "seed": seed, "reps": reps}

    def run(self, inputs):
        from steinrule import simulation
        return (simulation.run_sweep(inputs["beta"]),
                simulation.gamma_sweep(inputs["gamma"]))

    def check(self, inputs, results):
        problems = []
        expected_cells = (self.BETA_CELLS, len(self.GAMMA_NORMS))
        for result, cells in zip(results, expected_cells):
            if len(result.rows) != 3 * cells:
                problems.append(f"{len(result.rows)} rows, expected {3 * cells}")
            for row in result.series("zero"):
                if row.rmse != 1.0:
                    problems.append(f"zero control rmse {row.rmse!r} != 1.0 "
                                    f"in cell {row.cell_id}")
        ref = _reference()["sweep"]
        if inputs["seed"] == DEFAULT_SEED and inputs["reps"] == ref["replications"]:
            for label, result in zip(("beta", "gamma"), results):
                for row, (rmse, se) in zip(result.series("spsl"), ref[label]):
                    if abs(row.rmse - rmse) > 4.0 * se:
                        problems.append(
                            f"{label} cell {row.cell_id}: spsl rmse {row.rmse!r} "
                            f"is more than 4 SE from the reference {rmse!r}")
        return problems

    def fingerprint(self, results):
        return json.dumps([[list(vars(row).values()) for row in result.rows]
                           for result in results])

    def units(self, inputs):
        return (self.BETA_CELLS + len(self.GAMMA_NORMS)) * inputs["reps"]

    def sizes(self, inputs):
        reps, n = inputs["reps"], self.N
        # one cell: padded uniforms, then normals, noise and residual rows
        return {"cells": self.BETA_CELLS + len(self.GAMMA_NORMS),
                "replications_per_cell": reps, "n": n, "k": self.K,
                "estimators": 3,
                "working_set_bytes": reps * 8 * (padded_stride(n) + 3 * n)}


class Analyze:
    """The `analyze` command on the shipped brand data: B tiny resample,
    rank-check and rule calls in a Python loop."""

    name = "analyze"
    unit = "replicates"
    B = 20_000
    WARM_B = 5_000
    DATA = os.path.join("tests", "data", "cigarette.csv")
    COVARIATES = ("tar", "nicotine", "weight")

    def build(self, seed, root, warm=False):
        B = self.WARM_B if warm else self.B
        out = os.path.join(root, ".perfbench_out", "analyze-report.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        argv = ["analyze", "--data", os.path.join(root, self.DATA),
                "--response", "co", "--covariates", ",".join(self.COVARIATES),
                "--bootstrap", str(B), "--seed", str(seed), "--out", out]
        return {"argv": argv, "out": out, "seed": seed, "B": B}

    def run(self, inputs):
        from steinrule import cli
        if os.path.exists(inputs["out"]):
            os.remove(inputs["out"])
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(inputs["argv"])
        report = None
        if code == 0:
            with open(inputs["out"]) as fh:
                report = json.load(fh)
        return {"code": code, "stdout": text.getvalue(), "report": report}

    def check(self, inputs, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        report = out["report"]
        problems = []
        if report["B"] != inputs["B"]:
            problems.append(f"report B={report['B']}, expected {inputs['B']}")
        eff = report["relative_efficiency"]
        if eff.get("ls") != 1.0:
            problems.append(f"base efficiency {eff.get('ls')!r} != 1.0")
        ref = _reference()["analyze"]
        expected = ref["spsl_efficiency"].get(str(inputs["B"]))
        if inputs["seed"] == DEFAULT_SEED and expected is not None:
            if abs(eff["spsl"] - expected) > ref["tolerance"]:
                problems.append(f"spsl efficiency {eff['spsl']!r} differs from "
                                f"the reference {expected!r}")
        return problems

    def fingerprint(self, out):
        return json.dumps(out, sort_keys=True)

    def units(self, inputs):
        return inputs["B"]

    def sizes(self, inputs):
        n, k = 25, len(self.COVARIATES) + 1
        # data plus the per-estimator loss arrays; each replicate is n x k
        return {"rows": n, "k": k, "B": inputs["B"],
                "working_set_bytes": 8 * (n * (k + 1) + 2 * inputs["B"])}


WORKLOADS = {w.name: w for w in (BoundSuite(), Sweep(), Analyze())}
