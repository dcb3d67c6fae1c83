"""Tests for the proximal, splitting, concave-convex, and mixture solvers."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from bsumkit import app_classic
from bsumkit.app_classic import (
    GmmJensenSurrogate,
    GmmParams,
    alternating_proximal_solve,
    cccp_solve,
    em_gmm,
    forward_backward_solve,
    gmm_nll,
    proximal_point_solve,
    two_cluster_dataset,
)
from bsumkit.core import (
    ComponentCollapseError,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    RngStream,
    make_block_structure,
)
from bsumkit.engine import SolveOptions
from bsumkit.problems import QuadraticProblem, lasso_problem, separable_quartic_dc
from bsumkit.verify import audit_trace


def u_at(u, part, xi, anchor, iteration=1):
    """u at ``xi`` with the rest frozen at ``anchor``: a one-row ``values`` call."""
    return u.values(part, np.asarray(xi, dtype=np.float64)[None], anchor.values[None],
                    anchor.structure, iteration)[0]


def scalar_point(x):
    return Point(np.array([float(x)]), make_block_structure([1]))


class TestProximalPointSolve:

    def test_geometric_iterates(self):
        """f = x^2, c = 1 from 2: iterates 2/3, 2/9, ... toward 0."""
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        x, trace = proximal_point_solve(prob.objective(), prob.prox_block_minimize,
                                        scalar_point(2.0), c=1.0,
                                        opts=SolveOptions(max_iters=100, tol=1e-14))
        np.testing.assert_allclose(trace.records[0].objective, (2.0 / 3) ** 2,
                                   rtol=1e-12)
        np.testing.assert_allclose(trace.records[1].objective, (2.0 / 9) ** 2,
                                   rtol=1e-12)
        assert abs(x.values[0]) < 1e-6

    def test_zero_objective_fixed(self):
        f = ObjectiveOracle(value=lambda v: 0.0)
        x, trace = proximal_point_solve(f, lambda part, anchor, c: anchor.part(part),
                                        scalar_point(1.5))
        np.testing.assert_array_equal(x.values, [1.5])
        assert trace.n_iterations == 1

    def test_decreasing_coefficient_stays_monotone(self):
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        x, trace = proximal_point_solve(prob.objective(), prob.prox_block_minimize,
                                        scalar_point(3.0),
                                        c=lambda r, anchor: 1.0 / r,
                                        opts=SolveOptions(max_iters=50))
        assert audit_trace(trace).passed

    def test_limit_matches_closed_form_minimizer(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3))
        prob = QuadraticProblem(m @ m.T + 3 * np.eye(3), rng.normal(size=3))
        x0 = Point(np.zeros(3), make_block_structure([3]))
        x, _ = proximal_point_solve(prob.objective(), prob.prox_block_minimize,
                                    x0, c=2.0,
                                    opts=SolveOptions(max_iters=500, tol=1e-13))
        np.testing.assert_allclose(x.values, np.linalg.solve(prob.Q, prob.b), atol=1e-5)


class TestAlternatingProximalSolve:

    def test_flat_valley_reaches_the_line(self):
        """(x1 + x2 - 1)^2 from (0, 0) lands on the solution line."""
        prob = QuadraticProblem(2.0 * np.ones((2, 2)), 2.0 * np.ones(2))
        shifted = ObjectiveOracle(
            value=lambda v: float((v[0] + v[1] - 1.0) ** 2),
            gradient=lambda v: 2.0 * (v[0] + v[1] - 1.0) * np.ones(2))
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        x, trace = alternating_proximal_solve(
            shifted, prob.prox_block_minimize, x0, c=1.0,
            opts=SolveOptions(max_iters=2000, tol=1e-14))
        assert shifted.value_at(x.values) <= 1e-12

    def test_separable_matches_exact_bcd_limit(self):
        prob = QuadraticProblem(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        x, _ = alternating_proximal_solve(prob.objective(), prob.prox_block_minimize,
                                          x0, c=1.0,
                                          opts=SolveOptions(max_iters=800, tol=1e-14))
        np.testing.assert_allclose(x.values, np.linalg.solve(prob.Q, prob.b), atol=1e-6)

    def test_huge_coefficient_still_monotone(self):
        prob = QuadraticProblem(2.0 * np.eye(2), np.array([2.0, -2.0]))
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        _, trace = alternating_proximal_solve(prob.objective(),
                                              prob.prox_block_minimize, x0, c=1e6,
                                              opts=SolveOptions(max_iters=30))
        assert audit_trace(trace).passed


class TestForwardBackwardSolve:

    def test_lasso_fixed_point(self):
        """min |x| + (x - 2)^2 / 2: subdifferential gives x* = 1."""
        _, s, x0 = lasso_problem(target=[2.0], weight=1.0, gamma=1.0)
        x, trace = forward_backward_solve(
            s.nonsmooth_total, s.prox, s.smooth, beta=1.0, gamma=1.0, x0=x0,
            opts=SolveOptions(max_iters=200, tol=1e-14))
        np.testing.assert_allclose(x.values, [1.0], atol=1e-10)
        assert audit_trace(trace).passed

    def test_no_nonsmooth_part_is_gradient_descent(self):
        smooth = ObjectiveOracle(value=lambda v: 0.5 * float(v @ v),
                                 gradient=lambda v: v.copy())
        x0 = scalar_point(1.0)
        x, trace = forward_backward_solve(
            lambda v: 0.0, lambda part, v, g: v, smooth, beta=1.0, gamma=0.5,
            x0=x0, opts=SolveOptions(max_iters=5, tol=1e-16))
        # x <- x - gamma x halves the iterate each step.
        np.testing.assert_allclose(trace.records[0].objective, 0.5 * 0.25,
                                   rtol=1e-12)

    def test_no_smooth_part_is_proximal_iteration(self):
        from bsumkit.surrogates import soft_threshold
        smooth = ObjectiveOracle(value=lambda v: 0.0,
                                 gradient=lambda v: np.zeros_like(v))
        x, _ = forward_backward_solve(
            lambda v: float(np.sum(np.abs(v))),
            lambda part, v, g: soft_threshold(v, g),
            smooth, beta=1.0, gamma=1.0, x0=scalar_point(3.0),
            opts=SolveOptions(max_iters=10, tol=1e-16))
        np.testing.assert_allclose(x.values, [0.0], atol=1e-12)


class TestCccpSolve:

    def test_quartic_from_eight(self):
        """Cube-root iteration reaches the stationary point 1."""
        f, dc, _ = separable_quartic_dc([1])
        x, trace = cccp_solve(dc, scalar_point(8.0),
                              opts=SolveOptions(max_iters=60, tol=1e-18))
        assert abs(x.values[0] - 1.0) <= 1e-8
        assert trace.n_iterations <= 60
        assert audit_trace(trace).passed

    def test_origin_is_fixed(self):
        _, dc, x0 = separable_quartic_dc([1])
        x, trace = cccp_solve(dc, x0, opts=SolveOptions(max_iters=20))
        np.testing.assert_array_equal(x.values, [0.0])
        assert trace.n_iterations == 1

    def test_negative_start_mirrors(self):
        _, dc, _ = separable_quartic_dc([1])
        x, _ = cccp_solve(dc, scalar_point(-8.0),
                          opts=SolveOptions(max_iters=60, tol=1e-14))
        np.testing.assert_allclose(x.values, [-1.0], atol=1e-8)

    def test_iterates_match_cube_root_oracle(self):
        _, dc, _ = separable_quartic_dc([1])
        opts = SolveOptions(max_iters=12, tol=1e-16)
        _, trace = cccp_solve(dc, scalar_point(8.0), opts=opts)
        expected = 8.0
        f = dc.objective()
        for rec in trace.records:
            expected = np.cbrt(expected)
            np.testing.assert_allclose(rec.objective,
                                       f.value_at(np.array([expected])),
                                       rtol=1e-12)

    def test_block_mode_on_two_coordinates(self):
        f, dc, _ = separable_quartic_dc([1, 1])
        x0 = Point(np.array([8.0, -8.0]), make_block_structure([1, 1]))
        x, trace = cccp_solve(dc, x0, opts=SolveOptions(max_iters=120, tol=1e-14),
                              block_mode=True)
        np.testing.assert_allclose(np.abs(x.values), [1.0, 1.0], atol=1e-8)
        assert audit_trace(trace).passed

    def test_gradient_balance_at_the_limit(self):
        _, dc, _ = separable_quartic_dc([1])
        x, _ = cccp_solve(dc, scalar_point(5.0),
                          opts=SolveOptions(max_iters=100, tol=1e-18))
        v = x.values[0]
        assert abs(v ** 3 - v) <= 1e-8

    def test_stationarity_gap_failure_is_reported(self):
        """Whole-variable steps work with a solver that refuses a single
        block; the post-run per-block gap cannot be computed and the trace
        says why."""
        _, dc, _ = separable_quartic_dc([1, 1])

        def whole_variable_only(part, a, anchor):
            if not isinstance(part, tuple):
                raise InvalidArgumentError("this solver takes the whole variable only")
            return np.cbrt(-a)

        dc = dataclasses.replace(dc, minimize_linear=whole_variable_only)
        x0 = Point(np.array([8.0, -8.0]), make_block_structure([1, 1]))
        _, trace = cccp_solve(dc, x0)
        assert trace.terminal_status == "converged"
        assert trace.stationarity_gap is None
        assert trace.warnings == ["stationarity gap not computed: "
                                  "this solver takes the whole variable only"]


class TestGmmParams:

    def test_simplex_enforced(self):
        with pytest.raises(InvalidArgumentError):
            GmmParams(weights=np.array([0.7, 0.7]), means=np.zeros(2),
                      variances=np.ones(2))

    def test_positive_variances_enforced(self):
        with pytest.raises(InvalidArgumentError):
            GmmParams(weights=np.array([1.0]), means=np.zeros(1),
                      variances=np.zeros(1))

    @pytest.mark.parametrize("field,values", [
        ("weights", [np.nan]), ("weights", [np.inf, 0.0]),
        ("means", [np.inf]), ("means", [np.nan]),
        ("variances", [np.nan, 1.0]), ("variances", [np.inf])])
    def test_non_finite_values_rejected(self, field, values):
        """NaN fails every comparison, so each check is written to fail on it."""
        n = len(values)
        fields = {"weights": np.full(n, 1.0 / n), "means": np.zeros(n),
                  "variances": np.ones(n), field: np.array(values)}
        with pytest.raises(InvalidArgumentError):
            GmmParams(**fields)

    @pytest.mark.parametrize("field,values,message", [
        ("weights", [0.7, 0.7], "simplex"), ("weights", [1.1, -0.1], "simplex"),
        ("weights", [np.nan, 1.0], "simplex"), ("weights", [np.inf, 0.0], "simplex"),
        ("means", [np.inf, 0.0], "finite"), ("means", [np.nan, 0.0], "finite"),
        ("variances", [np.nan, 1.0], "finite"), ("variances", [0.0, 1.0], "positive"),
        ("variances", [-1.0, 1.0], "positive")])
    def test_stacked_nll_checks_every_row(self, field, values, message):
        """gmm_nll_rows applies GmmParams' rules to each row: one bad row
        among good ones fails the stack with GmmParams' own error."""
        good = {"weights": np.array([0.4, 0.6]), "means": np.array([-1.0, 2.0]),
                "variances": np.array([1.0, 0.5])}
        bad = {**good, field: np.array(values)}
        with pytest.raises(InvalidArgumentError, match=message):
            GmmParams(**bad)
        rows = np.array([np.concatenate([p["weights"], p["means"], p["variances"]])
                         for p in (good, bad, good)])
        data = np.array([-1.0, 0.5, 2.0])
        with pytest.raises(InvalidArgumentError, match=message):
            app_classic.gmm_nll_rows(rows, data)
        want = gmm_nll(GmmParams(**good), data)
        assert app_classic.gmm_nll_rows(rows[[0, 2]], data).tolist() == [want, want]

    @pytest.mark.parametrize("shape", [(2, 5), (2, 0), (6,)])
    def test_stacked_nll_needs_a_stack_of_equal_thirds(self, shape):
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            app_classic.gmm_nll_rows(np.ones(shape), np.zeros(3))

    def test_point_roundtrip(self):
        theta = GmmParams(weights=np.array([0.25, 0.75]),
                          means=np.array([-1.0, 3.0]),
                          variances=np.array([1.0, 2.0]))
        back = GmmParams.from_point(theta.to_point())
        np.testing.assert_array_equal(back.weights, theta.weights)
        np.testing.assert_array_equal(back.means, theta.means)
        np.testing.assert_array_equal(back.variances, theta.variances)


class TestEmGmm:

    def test_single_component_closed_form(self):
        """J = 1: one step sets the sample mean and variance."""
        data = np.array([1.0, 2.0, 3.0, 6.0])
        theta, trace = em_gmm(data, 1, opts=SolveOptions(max_iters=5))
        np.testing.assert_allclose(theta.means, [np.mean(data)], rtol=1e-12)
        np.testing.assert_allclose(theta.variances, [np.var(data)], rtol=1e-12)
        np.testing.assert_array_equal(theta.weights, [1.0])

    def test_two_separated_clusters_recovered(self):
        data = two_cluster_dataset(RngStream(0), n_per_cluster=500,
                                   centers=(-5.0, 5.0), sigma=1.0)
        empirical = (float(np.mean(data[:500])), float(np.mean(data[500:])))
        theta, _ = em_gmm(data, 2, opts=SolveOptions(max_iters=300, tol=1e-12))
        got = np.sort(theta.means)
        np.testing.assert_allclose(got, np.sort(empirical), atol=0.1)

    @pytest.mark.parametrize("mode", ["full", "block"])
    def test_monotone_nll(self, mode):
        data = two_cluster_dataset(RngStream(3), n_per_cluster=100)
        theta, trace = em_gmm(data, 2, mode=mode,
                              opts=SolveOptions(max_iters=100, tol=1e-12))
        assert audit_trace(trace, slack=1e-12).passed
        np.testing.assert_allclose(trace.final_objective, gmm_nll(theta, data),
                                   rtol=1e-12)

    def test_block_mode_matches_full_likelihood(self):
        data = two_cluster_dataset(RngStream(7), n_per_cluster=200)
        full, t_full = em_gmm(data, 2, opts=SolveOptions(max_iters=400, tol=1e-13))
        block, t_block = em_gmm(data, 2, mode="block",
                                opts=SolveOptions(max_iters=1200, tol=1e-13))
        np.testing.assert_allclose(t_block.final_objective, t_full.final_objective,
                                   atol=1e-6)

    def test_component_collapse_detected(self):
        data = np.array([0.0, 0.0, 0.0, 1e4])
        theta0 = GmmParams(weights=np.array([1.0 - 1e-16, 1e-16]),
                           means=np.array([0.0, -1e6]),
                           variances=np.array([1.0, 1e-4]))
        with pytest.raises(ComponentCollapseError):
            em_gmm(data, 2, theta0=theta0, opts=SolveOptions(max_iters=50))

    def test_variance_floor_warns(self):
        data = np.concatenate([np.zeros(50), np.ones(50)])
        theta, trace = em_gmm(data, 2, s_floor=0.3,
                              opts=SolveOptions(max_iters=60, tol=1e-12))
        assert theta.variances.min() >= 0.3 - 1e-15
        assert any("clamped" in w for w in trace.warnings)

    @pytest.mark.parametrize("mode,clamped", [
        ("full", [1, 2, 3, 4, 5, 6, 7, 8]),
        ("block", [3, 6, 9, 12]),
    ], ids=["full", "block"])
    def test_each_clamped_iteration_named_once(self, mode, clamped):
        """The post-run stationarity check does not repeat the last clamp."""
        data = np.array([1.0] * 10 + list(np.linspace(-3.0, 3.0, 40)))
        theta0 = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([1.0, 0.0]),
                           variances=np.array([1e-3, 3.0]))
        _, trace = em_gmm(data, 2, theta0=theta0, mode=mode, s_floor=1e-2,
                          opts=SolveOptions(max_iters=12, tol=1e-12))
        named = [int(w.rsplit(" ", 1)[1]) for w in trace.warnings if "clamped" in w]
        assert named == clamped

    def test_stationarity_check_clamp_not_named(self):
        """At the default tol block mode stops after iteration 11, a means
        update; the post-run check's variance step clamps, but it is no
        iteration, so the warnings name 3, 6, 9 only."""
        data = np.array([1.0] * 10 + list(np.linspace(-3.0, 3.0, 40)))
        theta0 = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([1.0, 0.0]),
                           variances=np.array([1e-3, 3.0]))
        _, trace = em_gmm(data, 2, theta0=theta0, mode="block", s_floor=1e-2,
                          opts=SolveOptions(max_iters=12))
        assert trace.n_iterations == 11
        named = [int(w.rsplit(" ", 1)[1]) for w in trace.warnings if "clamped" in w]
        assert named == [3, 6, 9]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite"):
            em_gmm(np.array([1.0, bad, 2.0]), 2)

    def test_overflowing_data_variance_rejected(self):
        """Finite data whose variance overflows is bad input, not a failure
        of the default start."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="variance overflows"):
                em_gmm(np.array([0.0, 1e200]), 2)

    def test_data_shorter_than_components_rejected(self):
        with pytest.raises(InvalidArgumentError):
            em_gmm(np.array([1.0]), 2)

    def test_data_must_be_one_dimensional(self):
        """A 3 x 3 array is not read as a flattened 9-sample."""
        data = np.arange(9.0).reshape(3, 3)
        with pytest.raises(InvalidArgumentError, match="1-d"):
            em_gmm(data, 2)
        with pytest.raises(InvalidArgumentError, match="1-d"):
            GmmJensenSurrogate(data, s_floor=1e-3)

    def test_surrogate_tight_at_anchor(self):
        """The bound evaluated at the anchor equals the NLL there."""
        data = two_cluster_dataset(RngStream(1), n_per_cluster=50)
        theta = GmmParams(weights=np.array([0.4, 0.6]),
                          means=np.array([-4.0, 4.5]),
                          variances=np.array([1.2, 0.8]))
        u = GmmJensenSurrogate(data, s_floor=1e-9)
        x = theta.to_point()
        part = (0, 1, 2)
        np.testing.assert_allclose(u_at(u, part, x.values, x),
                                   gmm_nll(theta, data), atol=1e-10)


class TestEmOncePerPoint:
    """Each EM iteration builds one log-density matrix, shared by the
    objective and the Jensen bound, with the numbers of ``gmm_nll``."""

    N_ITERS = 6

    @staticmethod
    def data():
        return two_cluster_dataset(RngStream(2), n_per_cluster=150,
                                   centers=(-1.5, 1.5))

    @pytest.mark.parametrize("mode", ["full", "block"])
    def test_log_density_count(self, monkeypatch, mode):
        """1 at x0, 1 per iteration (the candidate, which f then reads) and
        1 per block in the post-run stationarity check."""
        calls = []
        densities = app_classic._log_component_densities

        def counted(*args):
            calls.append(1)
            return densities(*args)

        monkeypatch.setattr(app_classic, "_log_component_densities", counted)
        _, trace = em_gmm(self.data(), 2, mode=mode,
                          opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-15))
        assert trace.n_iterations == self.N_ITERS
        assert len(calls) == 1 + self.N_ITERS + 3

    @pytest.mark.parametrize("n_cols", range(1, 11))
    def test_logsumexp_is_the_axis_reduction(self, n_cols):
        """Bit for bit the max and sum along axis 0 of the (J, T) matrix,
        with points whose every component is -inf and, from two components
        on, a -inf component row (a zero weight)."""
        rng = np.random.default_rng(n_cols)
        a = rng.normal(scale=30.0, size=(n_cols, 2000))
        a[rng.uniform(size=a.shape) < 0.1] = -np.inf
        a[:, :3] = -np.inf
        if n_cols > 1:
            a[n_cols // 2] = -np.inf
        m = np.max(a, axis=0, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            ref = (m + np.log(np.sum(np.exp(a - m), axis=0, keepdims=True))).ravel()
            got = app_classic._logsumexp(a)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mode", ["full", "block"])
    def test_trace_objectives_are_gmm_nll(self, mode):
        data = self.data()
        _, trace = em_gmm(data, 2, mode=mode,
                          opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-15))
        assert trace.initial_objective == gmm_nll(
            app_classic._default_start(data, 2), data)
        for r, rec in enumerate(trace.records, start=1):
            theta_r, _ = em_gmm(data, 2, mode=mode,
                                opts=SolveOptions(max_iters=r, tol=1e-15))
            assert rec.objective == gmm_nll(theta_r, data)

    @pytest.mark.parametrize("mode", ["full", "block"])
    def test_minimum_is_a_fresh_value(self, monkeypatch, mode):
        """Each minimize's min u, stationarity check included, equals the
        value of a new surrogate at that anchor bit for bit."""
        data = self.data()
        seen = []
        minimize = GmmJensenSurrogate.minimize

        def recorded(self, part, anchor, iteration=1):
            z, umin = minimize(self, part, anchor, iteration)
            seen.append((part, anchor, z.part(part), umin))
            return z, umin

        monkeypatch.setattr(GmmJensenSurrogate, "minimize", recorded)
        _, trace = em_gmm(data, 2, mode=mode,
                          opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-15))
        assert len(seen) == self.N_ITERS + 3
        for part, anchor, xi, umin in seen:
            assert umin == u_at(GmmJensenSurrogate(data, s_floor=1.0), part, xi, anchor)

    @pytest.mark.parametrize("mode", ["full", "block"])
    def test_memo_stays_bounded(self, monkeypatch, mode):
        """The surrogate keeps facts only about the last anchor and the point
        minimize returned at it, and keeps them on those very vectors."""
        made = []

        class Recorded(GmmJensenSurrogate):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(app_classic, "GmmJensenSurrogate", Recorded)
        data = self.data()
        x, _ = em_gmm(data, 2, mode=mode,
                      opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-15))
        u = made[0]
        # The post-run stationarity check ran minimize last, at the final iterate.
        anchor, gamma, _ = u._anchor
        assert anchor.tobytes() == x.to_point().values.tobytes()
        assert gamma.shape == (2, 300)
        assert len(u._points) == 2 and u._points[0][0] is anchor
        for v, _ in u._points:
            assert not v.flags.writeable and v.base is None
        # An anchor keeps its logsumexp but not its matrix once gamma is built.
        a, lse = u._points[0][1]
        assert a is None and lse.shape == (300,)

    def test_cold_value_one_logsumexp(self, monkeypatch):
        """A values call runs one logsumexp (its anchors'), none for the
        candidates, however many rows it has and whatever the last call's
        anchor was."""
        calls = []
        logsumexp = app_classic._logsumexp

        def counted(a):
            calls.append(1)
            return logsumexp(a)

        monkeypatch.setattr(app_classic, "_logsumexp", counted)
        data = self.data()
        u = GmmJensenSurrogate(data, s_floor=1e-9)
        x = GmmParams(weights=np.array([0.4, 0.6]), means=np.array([-1.0, 2.0]),
                      variances=np.array([1.2, 0.8])).to_point()
        u_at(u, 1, np.array([-1.5, 1.5]), x)
        assert len(calls) == 1
        u_at(u, 2, np.array([1.0, 1.0]), x)
        assert len(calls) == 2
        y = x.with_part(1, np.array([0.0, 1.0]))
        u.values((0, 1, 2), np.stack([x.values, y.values]), np.stack([y.values, x.values]),
                 x.structure)
        assert len(calls) == 3


def broadcast_weighted_log_densities(theta, data):
    """The (J, T) log-densities as one broadcast over the components and
    the data: the formula the in-place row code must reproduce bit for bit."""
    with np.errstate(divide="ignore"):
        logw = np.log(theta.weights)
    diff = data[None, :] - theta.means[:, None]
    return logw[:, None] + -0.5 * (np.log(2.0 * np.pi * theta.variances)[:, None]
                                   + diff * diff / theta.variances[:, None])


def broadcast_jensen_terms(a, logp):
    """Responsibilities, sum gamma log gamma and the bound's cross term from
    the (J, T) log-density matrices at the anchor (``a``) and the candidate."""
    m = np.max(a, axis=0, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    lse = m + np.log(np.sum(np.exp(a - m), axis=0, keepdims=True))
    gamma = np.exp(a - lse)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = np.sum(np.where(gamma > 0, gamma * np.log(gamma), 0.0))
        cross = np.sum(np.where(gamma > 0, gamma * logp, 0.0))
    return gamma, entropy, float(-cross + entropy)


def mixture(n_components, rng, mean_scale=3.0, variances=(0.3, 3.0)):
    w = rng.uniform(0.5, 1.5, size=n_components)
    return GmmParams(weights=w / w.sum(), means=rng.normal(scale=mean_scale, size=n_components),
                     variances=rng.uniform(*variances, size=n_components))


def m_step_by_reduction(gamma, data, anchor, part, s_floor):
    """The part's parameters from numpy's sums along each component row of
    the (J, T) products: mass, sum gamma w and sum gamma (w - mu)^2, the
    last around the new means when the part holds them."""
    blocks = anchor.structure.part_blocks(part)
    mass = gamma.sum(axis=1)
    means = (gamma * data).sum(axis=1) / mass
    around = means if 1 in blocks else anchor.part(1)
    diff = data - around[:, None]
    variances = np.maximum((gamma * (diff * diff)).sum(axis=1) / mass, s_floor)
    pieces = {0: mass / data.size, 1: means, 2: variances}
    return np.concatenate([pieces[i] for i in blocks])


class RecordedSums(np.ndarray):
    """An array whose ``sum`` along axis 1 records its terms and result.
    Every (J, T) array that EM derives from data of this type is one too."""

    sums: list = []

    def sum(self, *args, **kwargs):
        total = super().sum(*args, **kwargs)
        if kwargs.get("axis") == 1:
            RecordedSums.sums.append((np.asarray(self).copy(), np.asarray(total).copy()))
        return total


class TestEmColumnArithmetic:
    """EM's per-point arithmetic runs on (J, T) arrays, one contiguous row
    per component (a column of the (T, J) layout it replaced), and gives the
    bits of the (J, T) broadcasts and of numpy's sums along each row."""

    @pytest.mark.parametrize("n_rows", [1, 7, 8, 9, 1000, 40001])
    @pytest.mark.parametrize("n_cols", range(1, 11))
    def test_column_sums_are_the_axis_reduction(self, n_rows, n_cols):
        """The M-step of each part is ``m_step_by_reduction`` bit for bit. From
        a thousand points on, the far points leave responsibilities of zero
        and of subnormal size."""
        rng = np.random.default_rng(100 * n_rows + n_cols)
        data = rng.normal(size=n_rows)
        far = rng.uniform(size=n_rows) < 0.05
        far[:10] = False  # a component collapses on fewer points
        data[far] *= rng.uniform(20.0, 80.0, size=far.sum())
        theta = mixture(n_cols, rng, mean_scale=1.0, variances=(1.0, 3.0))
        x = theta.to_point()
        u = GmmJensenSurrogate(data, s_floor=0.5)
        gamma, _ = u._responsibilities(x)
        assert gamma.shape == (n_cols, n_rows)
        for part in [(0, 1, 2), 0, 1, 2]:
            z, _ = u.minimize(part, x)
            want = m_step_by_reduction(gamma, data, x, part, 0.5)
            assert z.part(part).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_cols", range(1, 11))
    def test_log_densities_and_bound_are_the_broadcasts(self, n_cols):
        """A zero weight (a -inf row) included, and a far point whose
        gamma underflows to zero in all but one component."""
        rng = np.random.default_rng(n_cols)
        data = np.concatenate([rng.normal(scale=4.0, size=999), [1e3]])
        theta = mixture(n_cols, rng)
        if n_cols > 1:
            w = theta.weights.copy()
            w[0], w[1] = 0.0, w[0] + w[1]
            theta = dataclasses.replace(theta, weights=w)
        a = app_classic._weighted_log_densities(theta, data)
        assert a.shape == (n_cols, data.size) and a.flags.c_contiguous
        assert a.tobytes() == broadcast_weighted_log_densities(theta, data).tobytes()

        x = theta.to_point()
        y = x.with_part(1, x.part(1) + 0.5)
        u = GmmJensenSurrogate(data, s_floor=1e-9)
        bound = u_at(u, 1, y.part(1), x)
        gamma, entropy = u._responsibilities(x)
        want = broadcast_jensen_terms(broadcast_weighted_log_densities(theta, data),
                                      broadcast_weighted_log_densities(
                                          GmmParams.from_point(y), data))
        assert gamma.tobytes() == want[0].tobytes()
        assert (entropy, bound) == want[1:]

    @pytest.mark.parametrize("mode", ["full", "block"])
    @pytest.mark.parametrize("n_components", [1, 2, 3])
    def test_em_matches_the_broadcast_run(self, monkeypatch, mode, n_components):
        """Trace objectives, final parameters and clamp warnings equal those
        of a run with the broadcast log-densities."""
        data = np.concatenate([
            two_cluster_dataset(RngStream(n_components), n_per_cluster=250,
                                centers=(-1.5, 1.5)), np.full(100, 1.5)])
        opts = SolveOptions(max_iters=25, tol=1e-15)

        def run():
            theta, trace = em_gmm(data, n_components, mode=mode, opts=opts, s_floor=0.8)
            return (np.concatenate([theta.weights, theta.means, theta.variances]).tobytes(),
                    trace.initial_objective, [r.objective for r in trace.records],
                    trace.warnings)

        got = run()
        monkeypatch.setattr(app_classic, "_weighted_log_densities",
                            broadcast_weighted_log_densities)
        assert got == run()
        # From two components on, the spike's component clamps.
        assert bool(got[3]) == (n_components > 1)

    def test_m_step_sums_are_pairwise_accurate(self):
        """On 40,001 points spread over twelve decades, each of mass, sum
        gamma w and sum gamma (w - mu)^2 lies within ceil(log2 T) eps
        sum |terms| of the exactly rounded sum of its terms. Adding the same
        terms one after the other misses that bound."""
        rng = np.random.default_rng(0)
        n = 40001
        data = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 4.0, size=n)
        x = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([0.0, 1.0]),
                      variances=np.array([1e-4, 1e6])).to_point()
        u = GmmJensenSurrogate(data, s_floor=1e-300)
        u.data = u.data.view(RecordedSums)
        RecordedSums.sums = []
        u.minimize((0, 1, 2), x)
        assert len(RecordedSums.sums) == 3
        k = math.ceil(math.log2(n))
        misses = 0
        for terms, totals in RecordedSums.sums:
            for row, total in zip(terms, totals):
                exact = math.fsum(row)
                bound = k * np.finfo(np.float64).eps * math.fsum(np.abs(row))
                assert abs(total - exact) <= bound
                misses += abs(np.cumsum(row)[-1] - exact) > bound
        assert misses > 0
