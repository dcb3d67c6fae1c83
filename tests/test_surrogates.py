"""Tests for the surrogate constructors and their closed-form steps."""

import dataclasses

import numpy as np
import pytest

from bsumkit.core import (
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    make_block_structure,
)
from bsumkit.problems import QuadraticProblem, lasso_problem, separable_quartic_dc
from bsumkit.surrogates import (
    ExactBlockSurrogate,
    LipschitzQuadraticSurrogate,
    ProximalSurrogate,
    QuadraticApprox,
    soft_threshold,
)


def u_at(u, part, xi, anchor, iteration=1):
    """u at ``xi`` with the rest frozen at ``anchor``: a one-row ``values`` call."""
    return u.values(part, np.asarray(xi, dtype=np.float64)[None], anchor.values[None],
                    anchor.structure, iteration)[0]


def scalar_point(x):
    return Point(np.array([float(x)]), make_block_structure([1]))


class TestSoftThreshold:

    def test_shrinks_toward_zero(self):
        np.testing.assert_allclose(soft_threshold(np.array([3.0, -3.0]), 1.0),
                                   [2.0, -2.0])

    def test_small_values_clipped(self):
        np.testing.assert_array_equal(soft_threshold(np.array([0.5, -0.2]), 1.0),
                                      [0.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidArgumentError):
            soft_threshold(np.array([1.0]), -0.1)


class TestProximalMinimize:

    def test_scalar_quadratic(self):
        """min x^2 + (x - 2)^2 / 2  =>  2/3."""
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        got, _ = prob.proximal_surrogate(c=1.0).minimize(0, scalar_point(2.0))
        np.testing.assert_allclose(got.part(0), [2.0 / 3.0], rtol=1e-12)

    def test_zero_objective_is_identity(self):
        zero = ObjectiveOracle(value=lambda v: 0.0)
        u = ProximalSurrogate(zero, lambda part, anchor, c: anchor.part(part), c=3.5)
        y = Point(np.array([4.0, -2.0]), make_block_structure([2]))
        got, _ = u.minimize(0, y)
        np.testing.assert_array_equal(got.part(0), [4.0, -2.0])

    def test_coupled_quadratic_first_block(self):
        """(x1 + x2 - 1)^2 with x2 = 0: min (x1-1)^2 + x1^2/2  =>  2/3."""
        prob = QuadraticProblem(2.0 * np.ones((2, 2)), 2.0 * np.ones(2))
        y = Point(np.zeros(2), make_block_structure([1, 1]))
        got, _ = prob.proximal_surrogate(c=1.0).minimize(0, y)
        np.testing.assert_allclose(got.part(0), [2.0 / 3.0], rtol=1e-12)

    def test_nonpositive_coefficient_rejected(self):
        zero = ObjectiveOracle(value=lambda v: 0.0)
        u = ProximalSurrogate(zero, lambda part, anchor, c: anchor.part(part), c=0.0)
        with pytest.raises(InvalidArgumentError):
            u.minimize(0, scalar_point(1.0))


class TestProximalSurrogate:

    @pytest.mark.parametrize("seed", range(4))
    def test_gap_is_exactly_the_penalty(self, seed):
        """u(x, y) - f(x) = |x - y|^2 / (2c) with no rounding slack."""
        rng = np.random.default_rng(seed)
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        u = prob.proximal_surrogate(c=0.5)
        f = prob.objective()
        for _ in range(10):
            y = scalar_point(rng.normal())
            xi = np.array([rng.normal()])
            gap = u_at(u, 0, xi, y) - f.value_at(xi)
            np.testing.assert_allclose(gap, (xi[0] - y.values[0]) ** 2, rtol=1e-12)

    def test_iteration_dependent_coefficient(self):
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        u = ProximalSurrogate(prob.objective(), prob.prox_block_minimize,
                              c=lambda r, anchor: 1.0 / r)
        assert u.coefficient(1, scalar_point(0.0)) == 1.0
        assert u.coefficient(4, scalar_point(0.0)) == 0.25
        z, _ = u.minimize(0, scalar_point(2.0), iteration=1)
        np.testing.assert_allclose(z.part(0), [2.0 / 3.0], rtol=1e-12)

    def test_nonpositive_schedule_value_rejected(self):
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        u = ProximalSurrogate(prob.objective(), prob.prox_block_minimize,
                              c=lambda r, anchor: 0.0)
        with pytest.raises(InvalidArgumentError):
            u.minimize(0, scalar_point(1.0))


class TestDcMinimize:

    def test_cube_root_update(self):
        """f_cvx = x^4/4, f_cve = -x^2/2, anchor 8: solves x^3 = 8."""
        _, dc, _ = separable_quartic_dc([1])
        got, _ = dc.minimize(0, scalar_point(8.0))
        np.testing.assert_allclose(got.part(0), [2.0], rtol=1e-12)

    def test_origin_is_fixed(self):
        _, dc, x0 = separable_quartic_dc([1])
        np.testing.assert_array_equal(dc.minimize(0, x0)[0].part(0), [0.0])

    def test_unit_fixed_point(self):
        _, dc, _ = separable_quartic_dc([1])
        got, _ = dc.minimize(0, scalar_point(1.0))
        np.testing.assert_allclose(got.part(0), [1.0], rtol=1e-12)

    def test_fixed_point_balances_gradients(self):
        """Iterates approach a point with grad f_cvx + grad f_cve = 0."""
        _, dc, _ = separable_quartic_dc([1])
        x = scalar_point(8.0)
        for _ in range(30):
            x, _ = dc.minimize(0, x)
        residual = x.values[0] ** 3 - x.values[0]
        assert abs(residual) <= 1e-8

    def test_tight_and_dominating_at_samples(self):
        """u(x, y) = f(y) at x = y and u(x, y) >= f(x) elsewhere."""
        f, dc, _ = separable_quartic_dc([1])
        rng = np.random.default_rng(0)
        for _ in range(25):
            y = scalar_point(rng.uniform(-3, 3))
            xi = np.array([rng.uniform(-3, 3)])
            at_anchor = u_at(dc, 0, y.values, y)
            np.testing.assert_allclose(at_anchor, f.value_at(y.values),
                                       atol=1e-10)
            assert u_at(dc, 0, xi, y) >= f.value_at(xi) - 1e-9


class TestForwardBackward:

    def test_soft_threshold_only(self):
        """f1 = |x|, smooth part flat, gamma = 1: 3 maps to 2."""
        obj, s, _ = lasso_problem(target=[0.0], weight=1.0, gamma=1.0)
        flat = LipschitzQuadraticSurrogate(
            smooth=ObjectiveOracle(value=lambda v: 0.0,
                                   gradient=lambda v: np.zeros_like(v)),
            nonsmooth_total=s.nonsmooth_total, prox=s.prox, beta=1.0, gamma=1.0)
        got, _ = flat.minimize(0, scalar_point(3.0))
        np.testing.assert_allclose(got.part(0), [2.0], rtol=1e-12)
        got, _ = flat.minimize(0, scalar_point(0.5))
        np.testing.assert_array_equal(got.part(0), [0.0])

    def test_lasso_step_and_fixed_point(self):
        """f1 = |x|, f2 = (x-2)^2/2: step from 0 gives 1, which is fixed."""
        _, s, x0 = lasso_problem(target=[2.0], weight=1.0, gamma=1.0)
        x1, _ = s.minimize(0, x0)
        np.testing.assert_allclose(x1.values, [1.0], rtol=1e-12)
        x2, _ = s.minimize(0, x1)
        np.testing.assert_allclose(x2.values, x1.values, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_step_equals_surrogate_argmin(self, seed):
        """The splitting step solves the quadratic-bound subproblem."""
        rng = np.random.default_rng(seed)
        _, s, _ = lasso_problem(target=[rng.normal() * 2], weight=0.7, gamma=0.8)
        x = scalar_point(rng.normal() * 3)
        z, umin = s.minimize(0, x)
        assert umin == u_at(s, 0, z.part(0), x)
        for xi in np.linspace(-8.0, 8.0, 321):
            assert u_at(s, 0, np.array([xi]), x) >= umin - 1e-10

    def test_block_steps_componentwise(self):
        """Two l1 blocks with flat coupling: (3, -3) maps to (2, -2)."""
        structure = make_block_structure([1, 1])
        s = LipschitzQuadraticSurrogate(
            smooth=ObjectiveOracle(value=lambda v: 0.0,
                                   gradient=lambda v: np.zeros_like(v)),
            nonsmooth_total=lambda v: float(np.sum(np.abs(v))),
            prox=lambda part, v, g: soft_threshold(v, g),
            beta=1.0, gamma=1.0)
        x = Point(np.array([3.0, -3.0]), structure)
        np.testing.assert_allclose(s.minimize(0, x)[0].part(0), [2.0])
        np.testing.assert_allclose(s.minimize(1, x)[0].part(1), [-2.0])

    def test_block_step_with_coupled_smooth_part(self):
        """f3 = (x1+x2)^2/2, gamma = 0.5 at (1, 1): block 0 moves to 0."""
        structure = make_block_structure([1, 1])
        s = LipschitzQuadraticSurrogate(
            smooth=ObjectiveOracle(
                value=lambda v: 0.5 * float((v[0] + v[1]) ** 2),
                gradient=lambda v: np.full(2, v[0] + v[1])),
            nonsmooth_total=lambda v: 0.0,
            prox=lambda part, v, g: v,
            beta=2.0, gamma=0.5)
        x = Point(np.ones(2), structure)
        np.testing.assert_allclose(s.minimize(0, x)[0].part(0), [0.0], atol=1e-15)

    def test_gamma_range_enforced(self):
        obj = ObjectiveOracle(value=lambda v: 0.0,
                              gradient=lambda v: np.zeros_like(v))
        with pytest.raises(InvalidArgumentError):
            LipschitzQuadraticSurrogate(smooth=obj, nonsmooth_total=lambda v: 0.0,
                                        prox=lambda p, v, g: v, beta=1.0, gamma=2.5)
        with pytest.raises(InvalidArgumentError):
            LipschitzQuadraticSurrogate(smooth=obj, nonsmooth_total=lambda v: 0.0,
                                        prox=lambda p, v, g: v, beta=1.0, gamma=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_upper_bound_when_gamma_within_descent_range(self, seed):
        """gamma <= 1/beta makes u(x, y) >= f(x) on random pairs."""
        rng = np.random.default_rng(seed)
        f, s, _ = lasso_problem(target=[1.0], weight=0.5, gamma=1.0)
        for _ in range(20):
            y = scalar_point(rng.normal() * 3)
            xi = np.array([rng.normal() * 3])
            assert u_at(s, 0, xi, y) >= f.value_at(xi.copy()) - 1e-9

    def test_boundary_gamma_is_tight(self):
        """gamma = 1/beta on f2 = beta x^2 / 2 gives a zero bound gap."""
        beta = 2.0
        s = LipschitzQuadraticSurrogate(
            smooth=ObjectiveOracle(value=lambda v: 0.5 * beta * v[..., 0] ** 2,
                                   gradient=lambda v: beta * v),
            nonsmooth_total=lambda v: 0.0,
            prox=lambda part, v, g: v,
            beta=beta, gamma=1.0 / beta)
        y = scalar_point(1.5)
        xi = np.array([-0.25])
        gap = u_at(s, 0, xi, y) - 0.5 * beta * xi[0] ** 2
        np.testing.assert_allclose(gap, 0.0, atol=1e-12)


class TestOneGradientPerMinimize:
    """A minimize computes the gradient at the anchor once, and its minimum
    is what values returns at the argmin, bit for bit."""

    PARTS = (0, 1, (0, 1))

    def test_dc_linearization(self):
        _, dc, _ = separable_quartic_dc([1, 1])
        grads = []

        def cve_grad(x):
            grads.append(1)
            return -x

        dc = dataclasses.replace(dc, cve_grad=cve_grad)
        x = Point(np.array([8.0, -3.0]), make_block_structure([1, 1]))
        for part in self.PARTS:
            grads.clear()
            z, umin = dc.minimize(part, x)
            assert len(grads) == 1
            assert umin == u_at(dc, part, z.part(part), x)

    def test_lipschitz_quadratic(self):
        grads = []

        class CountingOracle(ObjectiveOracle):
            def gradient_at(self, x):
                grads.append(1)
                return super().gradient_at(x)

        _, s, _ = lasso_problem(target=[2.0, -1.0], weight=0.5, gamma=0.8, dims=[1, 1])
        s = dataclasses.replace(s, smooth=CountingOracle(value=s.smooth.value,
                                                         gradient=s.smooth.gradient))
        x = Point(np.array([3.0, 0.25]), make_block_structure([1, 1]))
        for part in self.PARTS:
            grads.clear()
            z, umin = s.minimize(part, x)
            assert len(grads) == 1
            assert umin == u_at(s, part, z.part(part), x)


class TestOneEvaluationPerMinimize:
    """A minimize evaluates f once and the proximal coefficient once, without
    calling values, and its minimum is what values returns at the argmin."""

    PARTS = (0, 1, (0, 1))

    @staticmethod
    def counting(f, calls):
        def value(v):
            calls.append("f")
            return f.value(v)
        return ObjectiveOracle(value=value)

    def test_proximal_surrogate(self, monkeypatch):
        calls = []
        prob = QuadraticProblem(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0]))

        def c(iteration, anchor):
            calls.append("c")
            return 0.5 + iteration

        u = ProximalSurrogate(self.counting(prob.objective(), calls),
                              prob.prox_block_minimize, c=c)
        x = Point(np.array([3.0, 0.25]), make_block_structure([1, 1]))
        for part in self.PARTS:
            with monkeypatch.context() as m:
                m.setattr(ProximalSurrogate, "values", None)
                calls.clear()
                z, umin = u.minimize(part, x, 2)
            assert sorted(calls) == ["c", "f"]
            assert umin == u_at(u, part, z.part(part), x, 2)

    def test_exact_block_surrogate(self, monkeypatch):
        calls = []
        prob = QuadraticProblem(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0]))
        u = ExactBlockSurrogate(self.counting(prob.objective(), calls), prob.block_minimize)
        x = Point(np.array([3.0, 0.25]), make_block_structure([1, 1]))
        for part in self.PARTS:
            with monkeypatch.context() as m:
                m.setattr(ExactBlockSurrogate, "values", None)
                calls.clear()
                z, umin = u.minimize(part, x)
            assert calls == ["f"]
            assert umin == u_at(u, part, z.part(part), x)


class TestQuadraticApprox:

    def make(self, t=0.5):
        f = ObjectiveOracle(value=lambda v: v[..., 0] ** 4 / 4, gradient=lambda v: v ** 3)
        return f, QuadraticApprox(f, t=t)

    def test_tight_at_anchor(self):
        f, h = self.make()
        y = scalar_point(1.3)
        np.testing.assert_allclose(u_at(h, 0, y.values, y), f.value_at(y.values),
                                   rtol=1e-12)

    def test_minimizer_is_gradient_step(self):
        f, h = self.make(t=0.5)
        y = scalar_point(2.0)
        z, _ = h.minimize(0, y)
        np.testing.assert_allclose(z.part(0), [2.0 - 0.5 * 8.0], rtol=1e-12)

    def test_group_step_is_the_blockwise_steps(self):
        """A group's step is, bit for bit, each block's y_i - t grad_i f(y) in block order."""
        f = ObjectiveOracle(value=lambda v: float(np.sum(v ** 4) / 4 + v[0] * v[-1]),
                            gradient=lambda v: v ** 3 + np.r_[v[-1], np.zeros(v.size - 2), v[0]])
        h = QuadraticApprox(f, t=0.3)
        s = make_block_structure([2, 1, 3])
        y = Point(np.random.default_rng(4).normal(size=6), s)
        g = f.gradient_at(y.values)
        want = np.concatenate([y.part(i) - 0.3 * g[s.locate(i)[1]] for i in (0, 2)])
        z, _ = h.minimize((2, 0), y)
        assert np.array_equal(z.part((0, 2)), want)
        assert np.array_equal(z.part(1), y.part(1))

    @pytest.mark.parametrize("seed", range(3))
    def test_strictly_convex_in_xi(self, seed):
        rng = np.random.default_rng(seed)
        _, h = self.make()
        y = scalar_point(rng.normal())
        for _ in range(10):
            a = np.array([rng.normal() * 2])
            b = np.array([rng.normal() * 2])
            if abs(a[0] - b[0]) < 1e-6:
                continue
            mid = u_at(h, 0, (a + b) / 2, y)
            avg = 0.5 * (u_at(h, 0, a, y) + u_at(h, 0, b, y))
            assert mid < avg - 1e-12

    def test_invalid_construction(self):
        f, _ = self.make()
        with pytest.raises(InvalidArgumentError):
            QuadraticApprox(f, t=0.0)
        with pytest.raises(InvalidArgumentError):
            QuadraticApprox(ObjectiveOracle(value=lambda v: 0.0), t=1.0)


class TestExactBlockSurrogate:

    def test_value_is_objective(self):
        prob = QuadraticProblem(2.0 * np.eye(2), np.array([2.0, -2.0]))
        u = prob.exact_surrogate()
        f = prob.objective()
        y = Point(np.array([0.5, 0.5]), make_block_structure([1, 1]))
        xi = np.array([3.0])
        np.testing.assert_allclose(u_at(u, 0, xi, y),
                                   f.value_at(np.array([3.0, 0.5])), rtol=1e-12)

    def test_minimize_returns_attained_value(self):
        prob = QuadraticProblem(2.0 * np.eye(2), np.array([2.0, -2.0]))
        u = prob.exact_surrogate()
        y = Point(np.zeros(2), make_block_structure([1, 1]))
        z, val = u.minimize(0, y)
        np.testing.assert_allclose(z.part(0), [1.0], rtol=1e-12)
        np.testing.assert_allclose(val, u_at(u, 0, z.part(0), y), rtol=1e-12)
