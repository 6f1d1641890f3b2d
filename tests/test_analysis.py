"""CSV loading, correlation screening, and bootstrap efficiency."""

import dataclasses
import json
import multiprocessing
from fractions import Fraction
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from steinrule import (
    Competitor,
    DataError,
    EstimatorDef,
    HFunction,
    LinearModel,
    UndefinedCorrelationError,
    bootstrap_efficiency,
    correlation_table,
    fit_ols,
    load_csv,
    point_estimates,
    spsl,
)
from steinrule import _rng, plug_in_gap
from steinrule.analysis import _CERTIFIED_COND, _fit_pair, _normal_fit
from steinrule.simulation import _losses, relative_mse

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cigarette.csv")


def sparse_data(tmp_path):
    # a dummy column set in one row of eight: resamples that miss the row
    # lose rank and are redrawn
    path = tmp_path / "sparse.csv"
    rows = ["y,x,d"] + [f"{0.3 * i + (i % 3)},{i},{int(i == 0)}"
                        for i in range(8)]
    path.write_text("\n".join(rows) + "\n")
    return load_csv(path).select("y", ["x", "d"])


def loop_bootstrap(data, B, seed):
    """The bootstrap one replicate at a time: a one-row draw, a rank check,
    stream-2 redraws numbered in sequence, and the fit from the replicate's
    own SVD, scored against the same SVD fit of the full sample through
    the bootstrap's reducer on its chunks. Returns the (name, efficiency,
    se) triples and the redraws."""
    X, y = data.design()
    n, k = X.shape

    def draw(stream, index):
        u = _rng.uniforms(seed, 1, n, stream=stream, start=index)[0]
        return np.minimum((u * n).astype(int), n - 1)

    def fit(Xb, yb):
        u, s, vt = np.linalg.svd(Xb, full_matrices=False)
        bh = vt.T @ ((u.T @ yb) / s)
        d = np.einsum("ij,ij->j", Xb, Xb)
        return bh, (Xb.T @ yb) / d, plug_in_gap(
            yb - Xb @ bh, n - k, np.sum(1.0 / s**2) - np.sum(1.0 / d))

    beta_hat, beta_tilde, a_hat = np.empty((B, k)), np.empty((B, k)), np.empty(B)
    redraws = 0
    for b in range(B):
        idx = draw(0, b)
        while np.linalg.matrix_rank(X[idx]) < k:
            idx = draw(2, redraws)
            redraws += 1
        beta_hat[b], beta_tilde[b], a_hat[b] = fit(X[idx], y[idx])
    reference = fit(X, y)[0]
    parts = [_rng.moments(_losses([spsl()], beta_hat[lo:hi] - reference,
                                  beta_hat[lo:hi] - beta_tilde[lo:hi],
                                  a_hat[lo:hi]))
             for lo, hi in _rng.chunks(B, n * k)]
    return relative_mse([spsl()], parts), redraws


def hopeless_data(tmp_path):
    # six dummies, each set in one of 20 rows
    path = tmp_path / "hopeless.csv"
    names = [f"d{j}" for j in range(6)]
    rows = [",".join(["y", "x"] + names)] + [
        ",".join([f"{0.3 * i + (i % 3)}", f"{i}"]
                 + [str(int(i == j)) for j in range(6)])
        for i in range(20)]
    path.write_text("\n".join(rows) + "\n")
    return load_csv(path).select("y", ["x"] + names)


def draws(data, lo, hi, seed=0):
    """The rows that the bootstrap's replicates lo to hi - 1 draw."""
    u = _rng.uniforms(seed, hi - lo, data.n, start=lo)
    return np.minimum((u * data.n).astype(int), data.n - 1)


def resamples(data, lo, hi, seed=0):
    """The bootstrap's resamples lo to hi - 1 in count form: the design,
    the response and how often each replicate draws each row."""
    X, y = data.design()
    idx = draws(data, lo, hi, seed)
    return X, y, np.stack([np.bincount(i, minlength=data.n) for i in idx]) * 1.0


def with_special_design(data, design):
    """The brand resamples 0 to 499 over the brand rows stacked with a
    special design's rows, replicate 7 drawing each special row once:
    the stacked design, the response and the counts."""
    X, y, w = resamples(data, 0, 500)
    Xs, ys = design
    w = np.hstack([w, np.zeros((500, len(ys)))])
    w[7] = np.arange(w.shape[1]) >= len(y)
    return np.vstack([X, Xs]), np.concatenate([y, ys]), w


def collinear_design(delta, n=25):
    """An intercept and three covariates, the last within delta z of the
    first: tr G tr A grows as 1 / delta^2, and the design keeps full rank."""
    rng = np.random.default_rng(7)
    x1, x2, z = rng.uniform(0, 10, n), rng.uniform(0, 10, n), rng.normal(size=n)
    X = np.column_stack([np.ones(n), x1, x2, x1 + delta * z])
    return X, X @ [1.0, 0.5, -0.3, 0.2] + rng.normal(size=n)


def collinear_data(tmp_path, delta):
    X, y = collinear_design(delta)
    path = tmp_path / "collinear.csv"
    rows = ["y,x1,x2,w"] + [",".join(repr(float(v)) for v in (yi, *xi[1:]))
                            for yi, xi in zip(y, X)]
    path.write_text("\n".join(rows) + "\n")
    return load_csv(path).select("y", ["x1", "x2", "w"])


def certificate(X):
    """tr G tr A of each design in a stack, with A = X'X and G = A^-1."""
    A = X.swapaxes(-1, -2) @ X
    return (np.trace(np.linalg.inv(A), axis1=-2, axis2=-1)
            * np.trace(A, axis1=-2, axis2=-1))


def exact_fit(X, y):
    """The base fit and the plug-in risk gap of one design, exactly: the
    normal equations solved by Gauss-Jordan elimination in rationals."""
    n, k = X.shape
    Xq = [[Fraction(v) for v in row] for row in X]
    yq = [Fraction(v) for v in y]
    A = [[sum(r[i] * r[j] for r in Xq) for j in range(k)] for i in range(k)]
    # rows of [A | I | X'y]
    M = [A[i] + [Fraction(int(i == j)) for j in range(k)]
         + [sum(r[i] * v for r, v in zip(Xq, yq))] for i in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(k):
            if r != c:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    beta = [M[i][-1] for i in range(k)]
    resid = [v - sum(a * b for a, b in zip(r, beta)) for r, v in zip(Xq, yq)]
    trace_gap = (sum(M[i][k + i] for i in range(k))
                 - sum(1 / A[i][i] for i in range(k)))
    return beta, sum(e * e for e in resid) / (n - k) * trace_gap


def fit_errors(fit, X, y):
    """The largest relative error of beta_hat (in norm) and of a_hat over a
    stack of fits, against exact_fit."""
    worst = [0.0, 0.0]
    for bh, ah, Xi, yi in zip(fit[0], fit[2], X, y):
        beta, a = exact_fit(Xi, yi)
        err = sum((Fraction(v) - b) ** 2 for v, b in zip(bh, beta))
        worst[0] = max(worst[0], float(err / sum(b * b for b in beta)) ** 0.5)
        worst[1] = max(worst[1], float(abs((Fraction(ah) - a) / a)))
    return worst


@pytest.fixture(scope="module")
def brands():
    return load_csv(FIXTURE)


@pytest.fixture(scope="module")
def smoke_model(brands):
    return brands.select(response="co", covariates=["tar", "nicotine", "weight"])


class TestLoadCsv:
    def test_fixture_shape(self, brands):
        assert brands.n == 25
        assert brands.numeric_names == ["tar", "nicotine", "weight", "co"]
        assert brands.labels["brand"][0] == "Alpine"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_bad_cell_reports_position(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="column 'b'"):
            load_csv(p)

    def test_missing_value_reports_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(p)

    def test_duplicate_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_select_validates_names(self, brands):
        with pytest.raises(DataError):
            brands.select(response="bogus", covariates=["tar"])
        with pytest.raises(DataError):
            brands.select(response="co", covariates=["tar", "bogus"])
        with pytest.raises(DataError):
            brands.select(response="co", covariates=["tar", "co"])

    def test_select_needs_rows_for_the_covariates(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("y,a,b\n1,2,3\n2,1,5\n3,4,4\n")
        with pytest.raises(DataError, match="^3 rows cannot support 2 covariates "
                                            "plus an intercept$"):
            load_csv(path).select(response="y", covariates=["a", "b"])

    def test_select_needs_a_covariate(self, brands):
        with pytest.raises(DataError, match="^need at least one covariate, got none$"):
            brands.select(response="co", covariates=[])

    def test_design_has_intercept(self, smoke_model):
        X, y = smoke_model.design()
        assert X.shape == (25, 4)
        np.testing.assert_array_equal(X[:, 0], 1.0)
        assert y.shape == (25,)


class TestCorrelationTable:
    def test_reference_values(self, brands):
        tab = correlation_table(brands)
        ref_r = {("tar", "nicotine"): 0.9766, ("tar", "weight"): 0.4908,
                 ("tar", "co"): 0.9575, ("nicotine", "weight"): 0.5002,
                 ("nicotine", "co"): 0.9259, ("weight", "co"): 0.4640}
        ref_p = {("tar", "nicotine"): 0.0000, ("tar", "weight"): 0.0127,
                 ("tar", "co"): 0.0000, ("nicotine", "weight"): 0.0109,
                 ("nicotine", "co"): 0.0000, ("weight", "co"): 0.0195}
        for (a, b), r in ref_r.items():
            i, j = tab.names.index(a), tab.names.index(b)
            assert tab.r[i, j] == pytest.approx(r, abs=0.5e-4), (a, b)
            assert tab.r[j, i] == pytest.approx(tab.r[i, j], rel=1e-12)
            assert tab.p[i, j] == pytest.approx(ref_p[a, b], abs=5e-4), (a, b)

    def test_diagonal(self, brands):
        tab = correlation_table(brands)
        np.testing.assert_array_equal(np.diag(tab.r), 1.0)
        np.testing.assert_array_equal(np.diag(tab.p), 0.0)

    def test_subset_of_names(self, brands):
        tab = correlation_table(brands, names=["tar", "co"])
        assert tab.names == ["tar", "co"]
        assert tab.r.shape == (2, 2)

    def test_label_column_is_not_numeric(self, brands):
        with pytest.raises(DataError, match="^no numeric column named 'brand'$"):
            correlation_table(brands, ["co", "brand"])

    @pytest.mark.parametrize("names", [[], ["co"], ["co", "co"]])
    def test_needs_two_distinct_names(self, brands, names):
        message = f"need at least two distinct columns, got {names}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            correlation_table(brands, names=names)

    def test_constant_column_rejected(self, tmp_path):
        p = tmp_path / "k.csv"
        p.write_text("a,b\n1,1\n2,1\n3,1\n4,1\n")
        with pytest.raises(UndefinedCorrelationError):
            correlation_table(load_csv(p))

    def test_needs_three_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError):
            correlation_table(load_csv(p))

    def test_str_contains_names(self, brands):
        text = str(correlation_table(brands))
        assert "nicotine" in text and "0.9766" in text


class TestPointEstimates:
    def test_ls_matches_normal_equations(self, smoke_model):
        X, y = smoke_model.design()
        expect = np.linalg.solve(X.T @ X, X.T @ y)
        got = point_estimates(smoke_model)["ls"]
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_reference_coefficients(self, smoke_model):
        pts = point_estimates(smoke_model)
        np.testing.assert_allclose(
            pts["ls"], [3.2022, 0.9626, -2.6317, -0.1305], atol=0.01)
        np.testing.assert_allclose(
            pts["spsl"], [3.9325, 0.9645, -1.3262, 0.8983], atol=0.05)

    def test_spsl_matches_direct_formula(self, smoke_model):
        # recompute the shrink from raw pieces: both fits, the residual
        # variance, and the trace gap
        X, y = smoke_model.design()
        G = np.linalg.inv(X.T @ X)
        bh = G @ X.T @ y
        d = np.diag(X.T @ X)
        bt = (X.T @ y) / d
        s2 = ((y - X @ bh) @ (y - X @ bh)) / (25 - 4)
        a_hat = s2 * np.trace(G) - s2 * np.sum(1.0 / d)
        diff = bh - bt
        expect = bh - (a_hat / (diff @ diff)) * diff
        np.testing.assert_allclose(
            point_estimates(smoke_model)["spsl"], expect, rtol=1e-10)

    def test_zero_weight_returns_ls(self, smoke_model):
        pts = point_estimates(
            smoke_model, spec=EstimatorDef("flat", HFunction.zero(), 0.0))
        np.testing.assert_array_equal(pts["flat"], pts["ls"])

    def test_requires_selected_columns(self, brands):
        with pytest.raises(DataError):
            point_estimates(brands)

    @pytest.mark.parametrize("spec, message", [
        (EstimatorDef("ls", HFunction.zero(), 0.0), "'ls' names the base estimator"),
        ("spsl", "an estimator must be an EstimatorDef, got 'spsl'")],
        ids=["ls", "name"])
    def test_refuses_what_the_bootstrap_refuses(self, smoke_model, spec, message):
        # an estimator named 'ls' would replace the base fit in the result
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            point_estimates(smoke_model, spec)


class TestBootstrapEfficiency:
    def test_reference_run(self, smoke_model):
        rep = bootstrap_efficiency(smoke_model, B=1_000, seed=0)
        assert rep.relative_efficiency["ls"] == 1.0
        assert rep.efficiency_se["ls"] == 0.0
        spsl_eff = rep.relative_efficiency["spsl"]
        assert spsl_eff < 1.0
        assert rep.efficiency_se["spsl"] > 0.0
        assert rep.bootstrap_replications == 1_000

    def test_deterministic(self, smoke_model):
        a = bootstrap_efficiency(smoke_model, B=300, seed=4)
        b = bootstrap_efficiency(smoke_model, B=300, seed=4)
        assert a.relative_efficiency == b.relative_efficiency

    def test_seed_sensitivity_within_noise(self, smoke_model):
        a = bootstrap_efficiency(smoke_model, B=1_000, seed=1)
        b = bootstrap_efficiency(smoke_model, B=1_000, seed=2)
        gap = abs(a.relative_efficiency["spsl"] - b.relative_efficiency["spsl"])
        spread = a.efficiency_se["spsl"] + b.efficiency_se["spsl"]
        assert gap < 4 * spread

    def test_b_floor(self, smoke_model):
        with pytest.raises(ValueError):
            bootstrap_efficiency(smoke_model, B=50, seed=0)

    @pytest.mark.parametrize("B", [150.0, True])
    def test_non_integer_b_is_refused(self, smoke_model, B):
        with pytest.raises(DataError, match=f"B must be an integer, got {B!r}"):
            bootstrap_efficiency(smoke_model, B=B, seed=0)

    def test_numpy_integer_arguments_match_int(self, smoke_model):
        report = bootstrap_efficiency(smoke_model, B=np.int64(200), seed=np.int64(3))
        assert (type(report.bootstrap_replications), type(report.seed)) == (int, int)
        assert report.to_json() == bootstrap_efficiency(smoke_model, B=200, seed=3).to_json()

    def test_reserved_name(self, smoke_model):
        with pytest.raises(ValueError):
            bootstrap_efficiency(
                smoke_model,
                specs=[EstimatorDef("ls", HFunction.inverse_sq_norm(), None)],
                B=200, seed=0)

    @pytest.mark.parametrize("name", [None, 3, ""])
    def test_estimator_name_is_refused_before_a_draw(self, smoke_model, monkeypatch,
                                                     name):
        # such a name once ran the whole bootstrap, and then to_json could
        # not sort it; no EstimatorDef now holds one
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before refusing the name")
        monkeypatch.setattr(_rng, "uniforms", no_draw)
        with pytest.raises(ValueError, match="name must be a nonempty string"):
            bootstrap_efficiency(
                smoke_model, specs=[EstimatorDef(name, HFunction.inverse_sq_norm())],
                B=200, seed=0)

    @pytest.mark.parametrize("spec", ["spsl", HFunction.inverse_sq_norm()],
                             ids=["name", "weight"])
    def test_estimator_that_is_not_a_def_is_refused_before_a_draw(
            self, smoke_model, monkeypatch, spec):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before refusing the estimator")
        monkeypatch.setattr(_rng, "uniforms", no_draw)
        with pytest.raises(DataError, match=re.escape(
                f"an estimator must be an EstimatorDef, got {spec!r}")):
            bootstrap_efficiency(smoke_model, specs=[spec], B=200, seed=0)

    def test_estimator_names_must_be_distinct(self, smoke_model):
        with pytest.raises(DataError, match="distinct"):
            bootstrap_efficiency(
                smoke_model,
                specs=[spsl("a"), EstimatorDef("a", HFunction.smooth_inverse(4))],
                B=200, seed=0)

    def test_json_export(self, smoke_model):
        rep = bootstrap_efficiency(smoke_model, B=200, seed=0)
        doc = json.loads(rep.to_json())
        assert set(doc) >= {"point_estimates", "relative_efficiency",
                            "efficiency_se", "B", "seed"}
        assert doc["B"] == 200

    def test_json_reports_redraws(self, tmp_path):
        # the report must say how often a resample was redrawn
        rep = bootstrap_efficiency(sparse_data(tmp_path), B=200, seed=0)
        doc = json.loads(rep.to_json())
        assert rep.redraws > 0
        assert doc["redraws"] == rep.redraws

    @pytest.mark.parametrize("B, seed", [(200, 0), (5000, 1)])
    def test_redraws_match_per_replicate_loop(self, monkeypatch, tmp_path,
                                              B, seed):
        # B = 5000 is no multiple of the chunk size, and deficient rows
        # fall in every chunk: stacking must not move a bit or a redraw.
        # Candidates are drawn one chunk's worth per stream-2 call
        data = sparse_data(tmp_path)
        streams, uniforms = [], _rng.uniforms

        def traced(*args, **kwargs):
            streams.append(kwargs.get("stream"))
            return uniforms(*args, **kwargs)

        monkeypatch.setattr(_rng, "uniforms", traced)
        rep = bootstrap_efficiency(data, B=B, seed=seed)
        monkeypatch.setattr(_rng, "uniforms", uniforms)
        triples, redraws = loop_bootstrap(data, B, seed)
        assert rep.redraws == redraws > 0
        block = _rng.chunk_rows(data.design()[0].size)
        assert streams.count(2) == -(-redraws // block)
        for name, ratio, se in triples:
            assert rep.relative_efficiency[name] == ratio
            assert rep.efficiency_se[name] == se

    @pytest.mark.parametrize("B, seed", [(200, 0), (5000, 1)])
    def test_redraws_match_per_replicate_loop_on_two_threads(
            self, monkeypatch, tmp_path, B, seed):
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        self.test_redraws_match_per_replicate_loop(monkeypatch, tmp_path, B,
                                                   seed)

    @pytest.mark.parametrize("design", ["brands", "sparse"])
    def test_report_does_not_depend_on_the_thread_count(
            self, monkeypatch, tmp_path, smoke_model, design):
        # the sparse design redraws in every chunk, and its redraws are
        # numbered across chunks: they must still come in replicate order
        data = smoke_model if design == "brands" else sparse_data(tmp_path)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", 300 * data.design()[0].size)
        reports = []
        for threads in (1, 2, 8):
            monkeypatch.setattr(_rng, "_worker_count", lambda: threads)
            rep = bootstrap_efficiency(data, B=3001, seed=5)
            reports.append((rep.to_json(), str(rep), rep.redraws))
        assert reports == reports[:1] * 3
        assert (reports[0][2] > 0) == (design == "sparse")

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_reproduces_the_report(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        data = sparse_data(tmp_path)
        report = bootstrap_efficiency(data, B=5000, seed=1).to_json()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(
            bootstrap_efficiency(data, B=5000, seed=1).to_json()))
        with warnings.catch_warnings():
            # on Python 3.12+ os.fork warns when the parent runs other OS
            # threads, OpenBLAS's among them
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            # a child that waited on a thread of its parent's would hang
            assert recv.poll(60), "the forked child sent no report"
            assert recv.recv() == report
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert child.exitcode == 0

    @pytest.mark.parametrize("B", [100, 101])
    def test_gives_up_on_hopeless_design(self, tmp_path, B):
        # six dummies, each set in one of 20 rows: almost no resample keeps
        # them all, so the redraw budget of 10 B runs out, at B = 101 in a
        # last block shorter than the rest
        with pytest.raises(
                DataError,
                match=f"^bootstrap gave up after {10 * B} rank-deficient "
                      f"redraws$"):
            bootstrap_efficiency(hopeless_data(tmp_path), B=B, seed=0)

    def test_gives_up_on_hopeless_design_on_two_threads(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", 20 * 20 * 7)
        assert len(list(_rng.chunks(100, 20 * 7))) == 5
        with pytest.raises(
                DataError,
                match="^bootstrap gave up after 1000 rank-deficient redraws$"):
            bootstrap_efficiency(hopeless_data(tmp_path), B=100, seed=0)

    def test_memory_flat_in_replications(self, monkeypatch, smoke_model):
        # replicates are fitted in chunks: a (B, n, k) stack of resampled
        # designs alone would take 16 MB at B = 20000. The bootstrap holds
        # one chunk per thread, so the thread count is fixed for the bound
        # to mean the same on every host
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            bootstrap_efficiency(smoke_model, B=20_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"

    def test_memory_flat_in_rows(self, monkeypatch, tmp_path):
        # chunks shrink as designs grow: one chunk of all 100 replicates of
        # this 20000 x 2 design would hold 32 MB in X[idx] alone (a fixed
        # chunk of 512 peaked at 128 MB here). One chunk per thread, so the
        # thread count is fixed, as above
        monkeypatch.setattr(_rng, "_worker_count", lambda: 2)
        path = tmp_path / "tall.csv"
        rows = ["y,x"] + [f"{0.3 * i + (i % 7)},{i % 101}"
                          for i in range(20_000)]
        path.write_text("\n".join(rows) + "\n")
        data = load_csv(path).select("y", ["x"])
        tracemalloc.start()
        try:
            bootstrap_efficiency(data, B=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("design", ["brands", "sparse"])
    def test_memory_flat_in_replications_with_redraws(
            self, monkeypatch, tmp_path, smoke_model, design):
        # every chunk of the sparse design redraws, the brand design's none.
        # Each chunk keeps only its co-moment part, and a deficient chunk
        # only the positions of its redraws until they are made: about 1
        # (brands) and 4 (sparse) bytes per replicate, where holding each
        # replicate's fits and losses took 72 and 156. One thread, so the
        # peak does not depend on how the chunks in flight overlap; at two
        # it moved by up to 50 bytes per replicate between runs
        monkeypatch.setattr(_rng, "_worker_count", lambda: 1)
        data = smoke_model if design == "brands" else sparse_data(tmp_path)
        monkeypatch.setattr(_rng, "CHUNK_ELEMS", 500 * data.design()[0].size)
        peaks = []
        for B in (2000, 6000):
            tracemalloc.start()
            try:
                bootstrap_efficiency(data, B=B, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_replicate = (peaks[1] - peaks[0]) / 4000
        assert per_replicate < 16, f"{per_replicate:.1f} bytes per replicate"

    def test_str_report(self, smoke_model):
        text = str(bootstrap_efficiency(smoke_model, B=200, seed=0))
        assert "spsl" in text and "ls" in text

    def test_matches_per_replicate_loop(self, smoke_model):
        # one replicate at a time: resample, fit both estimators, combine
        # each spec on its own, and score against the full-sample fit
        specs = [spsl(), EstimatorDef("s4", HFunction.smooth_inverse(4)),
                 EstimatorDef("fixed", HFunction.inverse_sq_norm(), -0.05)]
        B, seed = 1_000, 3
        rep = bootstrap_efficiency(smoke_model, specs=specs, B=B, seed=seed)
        assert rep.redraws == 0
        X, y = smoke_model.design()
        n, k = X.shape
        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        losses = {est.name: np.empty(B) for est in specs}
        base = np.empty(B)
        for b in range(B):
            u = _rng.uniforms(seed, 1, n, stream=0, start=b)[0]
            idx = np.minimum((u * n).astype(int), n - 1)
            Xb, yb = X[idx], y[idx]
            bh = np.linalg.lstsq(Xb, yb, rcond=None)[0]
            d = np.sum(Xb * Xb, axis=0)
            bt = (Xb.T @ yb) / d
            resid = yb - Xb @ bh
            a_hat = (resid @ resid / (n - k)
                     * (np.trace(np.linalg.inv(Xb.T @ Xb)) - np.sum(1.0 / d)))
            base[b] = np.sum((bh - reference) ** 2)
            for est in specs:
                c = -a_hat if est.c is None else est.c
                diff = bh - bt
                fit = bh + c * est.h._values_from(np.array([diff @ diff]))[0] * diff
                losses[est.name][b] = np.sum((fit - reference) ** 2)
        for est in specs:
            loss = losses[est.name]
            ratio = loss.mean() / base.mean()
            se = (loss - ratio * base).std(ddof=1) / np.sqrt(B) / base.mean()
            assert rep.relative_efficiency[est.name] == pytest.approx(
                ratio, rel=1e-12)
            assert rep.efficiency_se[est.name] == pytest.approx(se, rel=1e-12)

    def test_uncertified_chunks_match_per_replicate_loop(self, tmp_path):
        # w is x1 to within 1e-6 z: every resample keeps full rank by the
        # SVD rule (s_min / s_max near 1e-7), but tr G tr A is near 1e14,
        # so every chunk fails the certificate and takes the chunk SVD
        data = collinear_data(tmp_path, 1e-6)
        B, seed = 1500, 0
        for lo, hi in _rng.chunks(B, data.design()[0].size):
            assert _normal_fit(*resamples(data, lo, hi, seed)) is None
        rep = bootstrap_efficiency(data, B=B, seed=seed)
        triples, redraws = loop_bootstrap(data, B, seed)
        assert rep.redraws == redraws == 0
        for name, ratio, se in triples:
            assert rep.relative_efficiency[name] == ratio
            assert rep.efficiency_se[name] == se

    def test_brand_chunks_take_the_count_path(self, smoke_model):
        # every brand chunk is certified, so none gathers its resampled
        # designs (an (m, n) index into X) and the only SVDs are those of
        # the full-sample fit, on the (n, k) design itself
        X, y = smoke_model.design()
        gathers, svd_shapes, svd = [], [], np.linalg.svd

        class Design(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray) and key.ndim == 2:
                    gathers.append(key.shape)
                return super().__getitem__(key)

        def traced(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        data = dataclasses.replace(smoke_model)
        data.design = lambda: (X.view(Design), y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "svd", traced)
            rep = bootstrap_efficiency(data, B=20_000, seed=0)
        assert rep.redraws == 0 and gathers == []
        assert svd_shapes and set(svd_shapes) == {X.shape}
        assert rep.to_json() == bootstrap_efficiency(
            smoke_model, B=20_000, seed=0).to_json()

    @pytest.mark.parametrize("B, expected", [(5000, 0.9674382132572352),
                                             (20_000, 0.9645488400358092)])
    def test_brand_efficiency_matches_the_benchmark_reference(
            self, smoke_model, B, expected):
        # perfbench's analyze check holds spsl at seed 0 to these values
        # within 1e-9 (perfbench/reference.json)
        rep = bootstrap_efficiency(smoke_model, B=B, seed=0)
        assert abs(rep.relative_efficiency["spsl"] - expected) < 1e-9

    def test_zero_weight_control_is_exact(self, smoke_model):
        rep = bootstrap_efficiency(
            smoke_model, specs=[spsl(), EstimatorDef("flat", HFunction.zero(), 0.0)],
            B=500, seed=0)
        assert rep.relative_efficiency["flat"] == 1.0
        assert rep.efficiency_se["flat"] == 0.0
        assert list(rep.relative_efficiency) == ["spsl", "flat", "ls"]


class TestFitPair:
    """The bootstrap's SVD form of the competitor's fit and trace gap
    gives Competitor's numbers, on one design and on a stack; its
    normal-equations form, from resample counts over one design, agrees
    with it on the chunks it certifies, and refuses the rest. A special
    design is stacked under the brand rows, and replicate 7's counts
    draw it."""

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_matches_competitor(self, stack):
        rng = np.random.default_rng(41)
        n, k = 12, 4
        X = np.concatenate([np.ones(stack + (n, 1)),
                            rng.normal(size=stack + (n, k - 1))], axis=-1)
        y = rng.normal(size=stack + (n,))
        beta_hat, beta_tilde, a_hat = _fit_pair(
            X, y, *np.linalg.svd(X, full_matrices=False))
        for i in np.ndindex(stack):
            comp = Competitor(X[i].T @ X[i])
            base = fit_ols(LinearModel(X[i], y[i], 1.0))
            np.testing.assert_allclose(beta_hat[i], base, rtol=1e-12)
            np.testing.assert_allclose(beta_tilde[i], comp.fit(base), rtol=1e-12)
            expect = plug_in_gap(y[i] - X[i] @ base, n - k, comp.trace_gap)
            assert a_hat[i] == pytest.approx(expect, rel=1e-12)

    def test_normal_fit_matches_svd_fit_on_brand_chunk(self, smoke_model):
        # beta_hat is compared in each replicate's norm, where the fits
        # differ by at most 2.6e-14: a small component is off by more (the
        # smallest, 0.0027, by 2.4e-13 of itself in the SVD fit and 1.5e-12
        # in the normal-equations fit)
        X, y, w = resamples(smoke_model, 0, 500)
        idx = draws(smoke_model, 0, 500)
        Xb, yb = X[idx], y[idx]
        assert np.all(certificate(Xb) < _CERTIFIED_COND)
        fit = _normal_fit(X, y, w)
        assert fit is not None
        svd = _fit_pair(Xb, yb, *np.linalg.svd(Xb, full_matrices=False))
        gap = np.linalg.norm(fit[0] - svd[0], axis=1)
        assert np.all(gap <= 1e-12 * np.linalg.norm(svd[0], axis=1))
        np.testing.assert_allclose(fit[1], svd[1], rtol=1e-12)
        np.testing.assert_allclose(fit[2], svd[2], rtol=1e-12)

    def test_normal_fit_accuracy_on_brand_chunk(self, smoke_model):
        # measured over the first 20 replicates: beta_hat 4.5e-15, a_hat
        # 1.0e-13 (the SVD fit: 2.5e-14 and 3.2e-15); bounds 11x and 10x those
        X, y, w = resamples(smoke_model, 0, 20)
        idx = draws(smoke_model, 0, 20)
        beta_err, a_err = fit_errors(_normal_fit(X, y, w), X[idx], y[idx])
        assert beta_err < 5e-14 and a_err < 1e-12, (beta_err, a_err)

    def test_normal_fit_accuracy_near_the_certificate_bound(self):
        # tr G tr A = 9.68e6, cond(X) = 3.0e3. beta_hat is off by 1.2e-13
        # (SVD 3.2e-14); tr G from the inverse of X'X carries cond(X)^2
        # eps, so a_hat is off by 4.0e-10 (SVD 1.5e-13), which the bound
        # keeps under 1e-9; test bounds 8x and 7.5x those
        X, y = collinear_design(5.0e-3)
        assert 0.9 * _CERTIFIED_COND < certificate(X[None])[0] < _CERTIFIED_COND
        fit = _normal_fit(X, y, np.ones((1, len(y))))
        beta_err, a_err = fit_errors(fit, X[None], y[None])
        assert beta_err < 1e-12 and a_err < 3e-9, (beta_err, a_err)

    @pytest.mark.parametrize("column", ["zero", "sum"])
    def test_rank_deficient_stack_is_refused(self, smoke_model, column):
        # a zero column makes inv raise; a column that is the sum of two
        # others does not, and tr G tr A comes out negative (-2.9e16)
        X, y = smoke_model.design()
        idx = draws(smoke_model, 0, 500)[7]
        Xs = X[idx]
        Xs[:, 3] = 0.0 if column == "zero" else Xs[:, 1] + Xs[:, 2]
        A = Xs.T @ Xs
        if column == "zero":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(A)
        else:
            assert np.trace(np.linalg.inv(A)) * np.trace(A) < 0
        assert _normal_fit(*with_special_design(smoke_model, (Xs, y[idx]))) is None

    def test_stack_past_the_certificate_bound_is_refused(self, smoke_model):
        # full rank and inv does not raise, but one design's tr G tr A is
        # 1.05e7, just past the bound
        X, y = smoke_model.design()
        Xb = X[draws(smoke_model, 0, 500)]
        Xb[7] = collinear_design(4.8e-3)[0]
        bound = certificate(Xb)
        assert _CERTIFIED_COND < bound[7] < 1.1 * _CERTIFIED_COND
        assert np.all(np.delete(bound, 7) < _CERTIFIED_COND)
        special = with_special_design(smoke_model, collinear_design(4.8e-3))
        assert _normal_fit(*special) is None
