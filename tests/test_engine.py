"""Tests for the four drivers, block schedules, and Armijo backtracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsumkit import app_wmmse, problems
from bsumkit.app_wmmse import NetworkSpec, gen_channels, init_transmitters, run_wmmse
from bsumkit.core import (
    BsumError,
    DescentDirectionError,
    InvalidArgumentError,
    InvalidScheduleError,
    LineSearchError,
    NumericFailure,
    ObjectiveOracle,
    Point,
    RngStream,
    SolverError,
    make_block_structure,
)
from bsumkit.engine import (
    Schedule,
    SolveOptions,
    armijo_step,
    run_bsca,
    run_bsum,
    run_misum,
    run_sum,
    schedule_next,
)
from bsumkit.problems import QuadraticProblem, separable_quartic_dc
from bsumkit.surrogates import ExactBlockSurrogate, ProximalSurrogate, QuadraticApprox


def scalar_point(x):
    return Point(np.array([float(x)]), make_block_structure([1]))


def random_spd_problem(seed, n=5):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    q = m @ m.T + n * np.eye(n)
    return QuadraticProblem(q, rng.normal(size=n))


class TestSchedule:

    def test_cyclic_round_robin(self):
        """n=3: iterations 1,2,3,4 visit blocks 0,1,2,0."""
        s = Schedule.cyclic(3)
        got = [schedule_next(s, r) for r in (1, 2, 3, 4)]
        assert got == [0, 1, 2, 0]

    def test_essentially_cyclic_groups(self):
        s = Schedule.essentially_cyclic(3, [(0, 1), (1, 2)], period=2)
        assert schedule_next(s, 1) == (0, 1)
        assert schedule_next(s, 2) == (1, 2)
        assert schedule_next(s, 3) == (0, 1)

    def test_essentially_cyclic_must_cover_all_blocks(self):
        with pytest.raises(InvalidScheduleError):
            Schedule.essentially_cyclic(3, [(0,), (1,)], period=2)

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule.essentially_cyclic(2, [(0, 1), ()], period=1)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cyclic_coverage_window(self, n):
        """Every window of n consecutive iterations visits every block."""
        s = Schedule.cyclic(n)
        seq = [schedule_next(s, r) for r in range(1, 3 * n + 1)]
        for start in range(len(seq) - n + 1):
            assert set(seq[start:start + n]) == set(range(n))

    def test_invalid_schedule_rejected_at_construction(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(n_blocks=3, groups=((0,), (1,)), period=2)

    @pytest.mark.parametrize("build", [
        lambda: Schedule(2, ((0,), (1, 1)), 2),
        lambda: Schedule(2, ((0,), (1.5,)), 2),
        lambda: Schedule.essentially_cyclic(2, [[0], [1.5]]),
    ], ids=["repeated_block", "float_block", "float_block_essentially_cyclic"])
    def test_invalid_blocks_rejected_at_construction(self, build):
        with pytest.raises(InvalidScheduleError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Schedule.essentially_cyclic(2, [[0], [True]]),
        lambda: Schedule.essentially_cyclic(2, [[0], [1]], True),
        lambda: Schedule.essentially_cyclic(2, [[0], [1]], 2.0),
        lambda: Schedule.essentially_cyclic(2.0, [[0], [1]]),
        lambda: Schedule.essentially_cyclic(True, [[0]]),
        lambda: Schedule(2, ((0,), (True,)), 2),
        lambda: Schedule(2, ((0,), (1,)), 2.0),
        lambda: Schedule(np.float64(2.0), ((0,), (1,)), 2),
        lambda: Schedule.cyclic(2.5),
        lambda: Schedule.cyclic(True),
    ], ids=["bool_block", "bool_period", "float_period", "float_n_blocks", "bool_n_blocks",
            "bool_block_direct", "float_period_direct", "float_n_blocks_direct",
            "float_cyclic", "bool_cyclic"])
    def test_schedules_take_only_integers(self, build):
        with pytest.raises(InvalidScheduleError, match="must be an integer"):
            build()

    def test_numpy_integer_blocks_accepted(self):
        s = Schedule.essentially_cyclic(np.int64(2), [[np.int64(0)], [np.int32(1)]], np.int8(2))
        assert (s.n_blocks, s.groups, s.period) == (2, ((0,), (1,)), 2)
        assert all(type(i) is int for i in (s.n_blocks, s.period, *s.groups[0], *s.groups[1]))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=6),
        st.integers(1, 8))))
    def test_construction_matches_window_coverage(self, case):
        """A schedule builds iff every window of ``period`` consecutive
        groups, taken cyclically, covers all blocks."""
        n, groups, period = case
        covered = all(
            set().union(*(groups[(s + t) % len(groups)] for t in range(period)))
            == set(range(n))
            for s in range(len(groups)))
        try:
            Schedule.essentially_cyclic(n, groups, period)
            built = True
        except InvalidScheduleError:
            built = False
        assert built == covered

    @pytest.mark.parametrize("driver", [run_bsum, run_bsca], ids=["run_bsum", "run_bsca"])
    def test_block_count_mismatch_rejected(self, driver):
        f = ObjectiveOracle(value=lambda v: 0.5 * float(v @ v),
                            gradient=lambda v: v.copy())
        x0 = Point(np.ones(2), make_block_structure([1, 1]))
        with pytest.raises(InvalidScheduleError):
            driver(f, QuadraticApprox(f, t=1.0), x0, schedule=Schedule.cyclic(3))


class TestRunSum:

    def test_proximal_quadratic_first_iterate(self):
        """min x^2 + (x - 2)^2 / 2  =>  x = 2/3, then iterates shrink to 0."""
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        x0 = scalar_point(2.0)
        x, trace = run_sum(prob.objective(), prob.proximal_surrogate(c=1.0), x0)
        first = 2.0 / 3.0
        np.testing.assert_allclose(trace.records[0].objective, first ** 2, rtol=1e-12)
        assert abs(x.values[0]) < 1e-3
        assert trace.terminal_status == "converged"

    def test_constant_objective_stops_immediately(self):
        f = ObjectiveOracle(value=lambda v: 5.0)
        u = ProximalSurrogate(f, lambda part, anchor, c: anchor.part(part), c=1.0)
        x, trace = run_sum(f, u, scalar_point(3.0))
        assert trace.n_iterations == 1
        assert trace.terminal_status == "converged"
        np.testing.assert_array_equal(x.values, [3.0])

    def test_dc_cube_root_iteration(self):
        """x^4/4 - x^2/2 from 8: first step solves x^3 = 8, limit is 1."""
        f, dc, _ = separable_quartic_dc([1])
        x, trace = run_sum(f, dc, scalar_point(8.0),
                           SolveOptions(max_iters=200, tol=1e-14))
        np.testing.assert_allclose(trace.records[0].objective,
                                   2.0 ** 4 / 4 - 2.0 ** 2 / 2, rtol=1e-12)
        np.testing.assert_allclose(x.values, [1.0], atol=1e-6)

    def test_target_objective_stop_is_strict(self):
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        x, trace = run_sum(prob.objective(), prob.proximal_surrogate(c=1.0),
                           scalar_point(9.0),
                           SolveOptions(target_objective=1.0, tol=1e-16))
        assert trace.terminal_status == "converged"
        assert trace.final_objective < 1.0
        # 9 -> 3 gives f = 9, not yet below the target; 3 -> 1 gives f = 1,
        # still not strictly below; one more step is required.
        assert trace.n_iterations == 3


class TestRunBsum:

    def test_blockwise_proximal_updates(self):
        """x_i <- (2 a_i + y_i) / 3 per block; limit (1, 2)."""
        a = np.array([1.0, 2.0])
        prob = QuadraticProblem(2.0 * np.eye(2), 2.0 * a)
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        x, trace = run_bsum(prob.objective(), prob.proximal_surrogate(c=1.0), x0,
                            SolveOptions(max_iters=500, tol=1e-14))
        np.testing.assert_allclose(x.values, a, atol=1e-6)

    @pytest.mark.parametrize("dims,part,schedule", [
        ([1], 0, None),
        ([1, 1], (0, 1), Schedule.essentially_cyclic(2, [(0, 1)])),
    ], ids=["one_block", "two_blocks"])
    def test_single_block_matches_run_sum(self, dims, part, schedule):
        """run_sum is run_bsum over one group of every block."""
        n = len(dims)
        prob = QuadraticProblem(2.0 * np.eye(n), np.arange(n, dtype=np.float64))
        f, u = prob.objective(), prob.proximal_surrogate(c=1.0)
        x0 = Point(np.full(n, 2.0), make_block_structure(dims))
        xs, ts = run_sum(f, u, x0)
        xb, tb = run_bsum(f, u, x0, schedule=schedule)
        np.testing.assert_array_equal(xs.values, xb.values)
        np.testing.assert_array_equal(ts.objectives(), tb.objectives())
        assert ts.terminal_status == tb.terminal_status
        assert [rec.block for rec in ts.records] == [part] * ts.n_iterations

    def test_exact_surrogate_converges_in_one_cycle(self):
        """Separable (x1-1)^2 + (x2+1)^2 lands on (1, -1) after one sweep."""
        prob = QuadraticProblem(2.0 * np.eye(2), np.array([2.0, -2.0]))
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        x, trace = run_bsum(prob.objective(), prob.exact_surrogate(), x0)
        np.testing.assert_allclose(x.values, [1.0, -1.0], atol=1e-12)
        assert trace.records[0].block == 0
        assert trace.records[1].block == 1
        np.testing.assert_allclose(trace.records[1].objective,
                                   prob.objective().value_at(np.array([1.0, -1.0])),
                                   rtol=1e-12)

    def test_group_schedule_joint_update(self):
        prob = random_spd_problem(3, n=4)
        x0 = Point(np.ones(4), make_block_structure([2, 2]))
        sched = Schedule.essentially_cyclic(2, [(0, 1), (1,), (0,)], period=2)
        x, trace = run_bsum(prob.objective(), prob.exact_surrogate(), x0,
                            SolveOptions(max_iters=200), schedule=sched)
        np.testing.assert_allclose(x.values, np.linalg.solve(prob.Q, prob.b), atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_descent_property(self, seed):
        """f(x^(r+1)) <= f(x^r) + 1e-12 (1 + |f|) along the whole trace."""
        prob = random_spd_problem(seed)
        x0 = Point(np.full(5, 3.0), make_block_structure([2, 2, 1]))
        _, trace = run_bsum(prob.objective(), prob.proximal_surrogate(c=0.7), x0,
                            SolveOptions(max_iters=60))
        vals = np.concatenate([[trace.initial_objective], trace.objectives()])
        for prev, cur in zip(vals[:-1], vals[1:]):
            assert cur <= prev + 1e-12 * (1.0 + abs(prev))

    @pytest.mark.parametrize("driver", [run_sum, run_bsum, run_misum],
                             ids=["run_sum", "run_bsum", "run_misum"])
    def test_f_is_read_once_per_iterate(self, driver):
        """With a surrogate that never calls f, a run evaluates f at the
        start and once per iteration; the post-run gap reads the trace. A
        surrogate that shares the run's f leaves f on each point it returns,
        so the driver reads it there: f is evaluated at the start and at
        each candidate, the gap's one per block included."""
        calls = []
        f = ObjectiveOracle(value=lambda v: calls.append(1) or 0.5 * float(v @ v))

        class ZeroPart:
            # The exact surrogate of 0.5 |x|^2, with its minimum computed in place.
            def minimize(self, part, anchor, iteration=1):
                z = anchor.with_part(part, np.zeros_like(anchor.part(part)))
                return z, 0.5 * float(z.values @ z.values)

        x0 = Point(np.ones(3), make_block_structure([1, 1, 1]))
        _, trace = driver(f, ZeroPart(), x0, SolveOptions(max_iters=50))
        assert trace.terminal_status == "converged"
        assert len(calls) == trace.n_iterations + 1
        assert trace.stationarity_gap == 0.0

        candidates = 3 if driver is run_misum else 1  # minimize calls per iteration
        for u in (ExactBlockSurrogate(f, lambda part, y: np.zeros_like(y.part(part))),
                  ProximalSurrogate(f, lambda part, y, c: y.part(part) / (1.0 + c), c=3.0)):
            calls.clear()
            # A new start: x0 keeps the f the first run read there.
            _, trace = driver(f, u, x0.with_values(x0.values), SolveOptions(max_iters=50))
            assert len(calls) == 1 + candidates * trace.n_iterations + 3, type(u).__name__

    def test_stationarity_gap_reported(self):
        prob = random_spd_problem(11)
        x0 = Point(np.zeros(5), make_block_structure([2, 3]))
        _, trace = run_bsum(prob.objective(), prob.exact_surrogate(), x0)
        assert trace.stationarity_gap is not None
        assert trace.stationarity_gap <= 1e-8

    def test_stationarity_gap_sees_last_iteration(self):
        """The post-run gap evaluates the surrogate at the last iteration run."""
        prob = random_spd_problem(12)
        seen = []

        def c(iteration, anchor):
            seen.append(iteration)
            return 0.7

        x0 = Point(np.zeros(5), make_block_structure([2, 3]))
        _, trace = run_bsum(prob.objective(),
                            ProximalSurrogate(prob.objective(), prob.prox_block_minimize, c=c),
                            x0, SolveOptions(max_iters=1000))
        assert trace.terminal_status == "converged"
        assert trace.n_iterations < 1000
        assert max(seen) == trace.n_iterations
        # One coefficient per minimize: the last step's, then one per block in the gap.
        assert seen[-3:] == [trace.n_iterations] * 3


class TestPowellCounterexample:
    """Powell (1973): exact cyclic coordinate minimization of
    f = -(x1 x2 + x2 x3 + x3 x1) + sum_i (|x_i| - 1)_+^2 from near the cube's
    vertices circles them and stalls at a point that is not stationary. The
    paper's point is that BCD with non-unique block minimizers can stop
    there; the post-run stationarity gap is what reports it."""

    EPS = 1e-2

    @staticmethod
    def value(x):
        return float(-(x[0] * x[1] + x[1] * x[2] + x[2] * x[0])
                     + np.sum(np.maximum(np.abs(x) - 1.0, 0.0) ** 2))

    @staticmethod
    def gradient(x):
        return -(x.sum() - x) + 2.0 * np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0)

    @staticmethod
    def solver(part, anchor):
        # argmin over x_i of -s x_i + (|x_i| - 1)_+^2 with s the other two
        # coordinates' sum: sign(s) (1 + |s| / 2).
        s = anchor.values.sum() - anchor.values[part]
        return np.array([np.sign(s) * (1.0 + abs(s) / 2.0)])

    def test_cyclic_exact_bcd_stops_at_a_non_stationary_point(self):
        eps = self.EPS
        x0 = Point(np.array([-1.0 - eps, 1.0 + eps / 2.0, -1.0 - eps / 4.0]),
                   make_block_structure([1, 1, 1]))
        f = ObjectiveOracle(value=self.value)
        x, trace = run_bsum(f, ExactBlockSurrogate(f, self.solver), x0,
                            SolveOptions(max_iters=1000, tol=1e-14))
        # Each sweep shrinks the offsets from the vertices, until the
        # decrease drops below the stop rule's bound.
        assert trace.terminal_status == "converged" and trace.n_iterations == 42
        np.testing.assert_allclose(x.values, [-1.0, 1.0, 1.0], atol=1e-12)
        assert np.linalg.norm(self.gradient(x.values)) >= 1.0
        assert trace.stationarity_gap >= 1.0


def two_block_exact(weights, targets):
    """Exact surrogate for sum_i w_i (x_i - t_i)^2 on scalar blocks."""
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    f = ObjectiveOracle(value=lambda v: float(np.sum(w * (v - t) ** 2)),
                        gradient=lambda v: 2.0 * w * (v - t))

    def solver(part, anchor):
        return t[anchor.structure.locate(part)[1]]

    return f, ExactBlockSurrogate(f, solver)


class TestRunMisum:

    def test_picks_block_with_smallest_minimum(self):
        """(x1-1)^2 + 2 (x2-1)^2 from (0,0): minima are (2, 1), block 1 wins."""
        f, u = two_block_exact([1.0, 2.0], [1.0, 1.0])
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        _, trace = run_misum(f, u, x0)
        first = trace.records[0]
        assert first.block == 1
        np.testing.assert_allclose(first.extras["block_minima"], [2.0, 1.0],
                                   rtol=1e-12)

    def test_tie_broken_by_lowest_index(self):
        f, u = two_block_exact([1.0, 1.0], [1.0, 1.0])
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        _, trace = run_misum(f, u, x0)
        assert trace.records[0].block == 0

    def test_single_block_matches_run_sum(self):
        prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
        f, u = prob.objective(), prob.proximal_surrogate(c=1.0)
        xs, ts = run_sum(f, u, scalar_point(2.0))
        xm, tm = run_misum(f, u, scalar_point(2.0))
        np.testing.assert_array_equal(xs.values, xm.values)
        np.testing.assert_array_equal(ts.objectives(), tm.objectives())

    @pytest.mark.parametrize("seed", range(4))
    def test_improvement_dominates_alternatives(self, seed):
        """The realized decrease beats what any other single block promised."""
        prob = random_spd_problem(seed, n=4)
        x0 = Point(np.full(4, 2.0), make_block_structure([1, 1, 1, 1]))
        _, trace = run_misum(prob.objective(), prob.exact_surrogate(), x0,
                             SolveOptions(max_iters=25))
        prev = trace.initial_objective
        for rec in trace.records:
            minima = np.asarray(rec.extras["block_minima"])
            np.testing.assert_allclose(rec.objective, minima.min(), rtol=1e-12)
            assert prev - rec.objective >= (prev - minima).max() - 1e-12
            prev = rec.objective


class TestArmijoStep:

    def test_full_step_accepted(self):
        """f = x^2 at 1, d = -1: alpha = 1 decreases f by 1 >= 0.01 * 2."""
        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2))
        alpha, x_new, f_new = armijo_step(f, scalar_point(1.0), np.array([-1.0]),
                                          fprime=-2.0, fx=1.0)
        assert alpha == 1.0
        np.testing.assert_array_equal(x_new.values, [0.0])
        assert f_new == 0.0

    def test_backtracks_match_scalar_scan(self):
        """Long directions force backtracking; compare against a direct
        scan of alpha = 0.5^j, j = 0..60, at sigma = 0.01."""
        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2))
        for scale in (4.0, 8.0, 1e3):
            fprime = -2.0 * scale
            alpha, x_new, f_new = armijo_step(f, scalar_point(1.0), np.array([-scale]),
                                              fprime=fprime, fx=1.0)
            expected = next(a for a in (0.5 ** j for j in range(61))
                            if 1.0 - (1.0 - a * scale) ** 2 >= -0.01 * a * fprime)
            assert expected < 1.0
            assert alpha == expected
            np.testing.assert_array_equal(x_new.values, [1.0 - alpha * scale])
            assert f_new == (1.0 - alpha * scale) ** 2

    def test_gives_up_after_sixty_backtracks(self):
        """A flat f never decreases: 61 trial steps, then LineSearchError."""
        calls = []
        f = ObjectiveOracle(value=lambda v: calls.append(float(v[0])) or 1.0)
        with pytest.raises(LineSearchError, match="after 60 backtracks"):
            armijo_step(f, scalar_point(0.0), np.array([-1.0]), fprime=-1.0, fx=1.0)
        assert calls == [-0.5 ** j for j in range(61)]

    def test_ascent_direction_rejected(self):
        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2))
        with pytest.raises(DescentDirectionError):
            armijo_step(f, scalar_point(1.0), np.array([1.0]), fprime=2.0, fx=1.0)


class TestRunBsca:

    def test_scalar_quadratic_two_iterations(self):
        """Model step y = x - t grad f with t = 0.5 lands on 0 in one move."""
        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2),
                            gradient=lambda v: 2.0 * v)
        h = QuadraticApprox(f, t=0.5)
        x, trace = run_bsca(f, h, scalar_point(1.0), SolveOptions(max_iters=10))
        assert abs(x.values[0]) <= 1e-12
        assert trace.n_iterations <= 2
        first = trace.records[0]
        assert first.step_size == 1.0
        np.testing.assert_allclose(first.extras["directional_derivative"], -2.0,
                                   rtol=1e-12)

    def test_two_blocks_unit_curvature(self):
        f = ObjectiveOracle(value=lambda v: 0.5 * float(v @ v),
                            gradient=lambda v: v.copy())
        h = QuadraticApprox(f, t=1.0)
        x0 = Point(np.ones(2), make_block_structure([1, 1]))
        x, _ = run_bsca(f, h, x0, SolveOptions(max_iters=10))
        np.testing.assert_allclose(x.values, [0.0, 0.0], atol=1e-12)

    def test_stationary_start_terminates_first_iteration(self):
        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2),
                            gradient=lambda v: 2.0 * v)
        h = QuadraticApprox(f, t=0.5)
        x, trace = run_bsca(f, h, scalar_point(0.0))
        assert trace.n_iterations == 1
        assert trace.terminal_status == "converged"
        assert trace.records[0].step_size is None

    def test_stalled_block_below_target_stops(self):
        """A start below the target stops at iteration 1 even when that
        iteration is a stall (block 0 model-stationary, block 1 not)."""
        f = ObjectiveOracle(value=lambda v: 0.5 * float(v @ v),
                            gradient=lambda v: v.copy())
        x0 = Point(np.array([0.0, 1.0]), make_block_structure([1, 1]))
        x, trace = run_bsca(f, QuadraticApprox(f, t=1.0), x0,
                            SolveOptions(target_objective=1.0))
        assert trace.n_iterations == 1
        assert trace.terminal_status == "converged"
        assert trace.records[0].step_size is None
        np.testing.assert_array_equal(x.values, x0.values)

    def test_stall_check_oracle_failure_is_wrapped(self):
        """Block 0 is model-stationary at (0, 1), so iteration 1 checks every
        block; the oracle failure on block 1 surfaces as a SolverError."""

        class FailsOnBlock1(QuadraticApprox):
            def minimize(self, part, anchor, iteration=1):
                if part == 1:
                    raise ValueError("oracle failure")
                return super().minimize(part, anchor, iteration)

        f = ObjectiveOracle(value=lambda v: 0.5 * float(v @ v),
                            gradient=lambda v: v.copy())
        x0 = Point(np.array([0.0, 1.0]), make_block_structure([1, 1]))
        with pytest.raises(SolverError) as info:
            run_bsca(f, FailsOnBlock1(f, t=1.0), x0)
        assert info.value.iteration == 1

    def test_ascent_model_step_rejected(self):
        """A model whose step climbs f fails in armijo_step's descent check,
        named with its iteration."""

        class Uphill(QuadraticApprox):
            def minimize(self, part, anchor, iteration=1):
                z, v = super().minimize(part, anchor, iteration)
                return anchor.with_part(part, 2.0 * anchor.part(part) - z.part(part)), v

        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2),
                            gradient=lambda v: 2.0 * v)
        with pytest.raises(DescentDirectionError) as info:
            run_bsca(f, Uphill(f, t=0.5), scalar_point(1.0))
        assert str(info.value) == "iteration 1: directional derivative 2.0 is positive"

    def test_gradient_required(self):
        f = ObjectiveOracle(value=lambda v: float(v[0] ** 2))
        fg = ObjectiveOracle(value=lambda v: float(v[0] ** 2),
                             gradient=lambda v: 2.0 * v)
        with pytest.raises(InvalidArgumentError):
            run_bsca(f, QuadraticApprox(fg, t=0.5), scalar_point(1.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_accepted_steps_satisfy_armijo(self, seed):
        """Re-evaluate the acceptance inequality from the recorded trace."""
        prob = random_spd_problem(seed, n=3)
        f = prob.objective()
        h = QuadraticApprox(f, t=0.02)
        x0 = Point(np.full(3, 2.0), make_block_structure([1, 1, 1]))
        opts = SolveOptions(max_iters=80)
        _, trace = run_bsca(f, h, x0, opts)
        sigma = 0.01  # run_bsca's sufficient-decrease constant
        prev = trace.initial_objective
        for rec in trace.records:
            if rec.step_size is not None:
                fprime = rec.extras["directional_derivative"]
                assert prev - rec.objective >= -sigma * rec.step_size * fprime - 1e-12
            prev = rec.objective

    def test_determinism(self):
        prob = random_spd_problem(9, n=4)
        f = prob.objective()
        h = QuadraticApprox(f, t=0.05)
        x0 = Point(np.full(4, 1.5), make_block_structure([2, 2]))
        x1, t1 = run_bsca(f, h, x0, SolveOptions(max_iters=40))
        x2, t2 = run_bsca(f, h, x0, SolveOptions(max_iters=40))
        np.testing.assert_array_equal(x1.values, x2.values)
        np.testing.assert_array_equal(t1.objectives(), t2.objectives())

    def test_one_f_and_one_gradient_per_fact_on_cli_toy(self, monkeypatch):
        """Per iteration without backtracks: the gradient at the anchor,
        which the model and f' share, and f at the accepted step, which the
        next iteration's model reads from the point."""
        counts = {"f": 0, "grad": 0}

        class CountingOracle(ObjectiveOracle):
            def value_at(self, x):
                counts["f"] += 1
                return super().value_at(x)

            def gradient_at(self, x):
                counts["grad"] += 1
                return super().gradient_at(x)

        monkeypatch.setattr(problems, "ObjectiveOracle", CountingOracle)
        trace = problems.toy_trace("bsca", SolveOptions(max_iters=50, tol=1e-8))
        assert trace.n_iterations == 50
        assert all(rec.step_size == 1.0 for rec in trace.records)
        assert counts == {"f": 1 + 50, "grad": 50}


def short_run(driver, opts):
    """The trace of a small run of the named driver."""
    if driver == "run_wmmse":
        spec = NetworkSpec.build(1, 2, 2)
        rng = RngStream(0)
        H = gen_channels(spec, rng.substream(0))
        return run_wmmse(spec, H, init_transmitters(spec, rng.substream(1)), opts)[1]
    prob = random_spd_problem(5, n=2)
    x0 = Point(np.full(2, 2.0), make_block_structure([1, 1]))
    if driver == "run_bsca":
        return run_bsca(prob.objective(), QuadraticApprox(prob.objective(), t=0.05),
                        x0, opts)[1]
    run = {"run_sum": run_sum, "run_bsum": run_bsum, "run_misum": run_misum}[driver]
    return run(prob.objective(), prob.proximal_surrogate(c=0.5), x0, opts)[1]


class TestSolveOptions:

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SolveOptions(max_iters=0)
        with pytest.raises(InvalidArgumentError):
            SolveOptions(tol=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": True}, "max_iters must be an integer"),
        ({"max_iters": 2.5}, "max_iters must be an integer"),
        ({"max_iters": "3"}, "max_iters must be an integer"),
        ({"tol": np.inf}, "tol must be positive and finite"),
        ({"tol": np.nan}, "tol must be positive and finite"),
        ({"tol": -1e-8}, "tol must be positive and finite"),
        ({"tol": True}, "tol must be a real number"),
        ({"tol": "1e-8"}, "tol must be a real number"),
        ({"target_objective": np.nan}, "target_objective must be finite"),
        ({"target_objective": -np.inf}, "target_objective must be finite"),
        ({"target_objective": "0"}, "target_objective must be a real number"),
    ])
    def test_refuses_counts_that_are_not_integers_and_reals_that_are_not_finite(
            self, kwargs, message):
        """A bool count would run one iteration, 2.5 would fail inside a
        driver and a NaN target would never fire: each is refused up front."""
        with pytest.raises(InvalidArgumentError, match=message):
            SolveOptions(**kwargs)

    def test_numpy_scalars_accepted(self):
        opts = SolveOptions(np.int64(3), np.float32(0.5), np.int64(-2))
        assert (opts.max_iters, opts.tol, opts.target_objective) == (3, 0.5, -2)


@pytest.mark.parametrize("error", [NumericFailure, ValueError], ids=["package", "foreign"])
@pytest.mark.parametrize("driver", ["run_bsum", "run_misum", "run_bsca", "run_wmmse"])
def test_failure_names_its_iteration(monkeypatch, driver, error):
    """An error raised inside iteration r surfaces with ``iteration == r`` and
    names r once: a package error as itself, any other as a SolverError
    chained to it. WMMSE fails in its first transmitter half-step, the others
    in the surrogate's minimize of iteration 3."""
    r = 2 if driver == "run_wmmse" else 3
    raised = error("oracle failure")

    if driver == "run_wmmse":
        def fail(*args):
            raise raised
        monkeypatch.setattr(app_wmmse, "_transmitter_stack", fail)
    else:
        cls = QuadraticApprox if driver == "run_bsca" else ProximalSurrogate
        minimize = cls.minimize

        def failing(self, part, anchor, iteration=1):
            if iteration == r:
                raise raised
            return minimize(self, part, anchor, iteration)
        monkeypatch.setattr(cls, "minimize", failing)

    with pytest.raises(BsumError) as info:
        short_run(driver, SolveOptions(max_iters=20))
    exc = info.value
    assert exc.iteration == r
    message = str(exc)
    assert message.startswith(f"iteration {r}: ") and message.count("iteration") == 1
    if error is ValueError:
        assert type(exc) is SolverError and exc.__cause__ is raised
        assert message == f"iteration {r}: ValueError: oracle failure"
    else:
        assert exc is raised and message == f"iteration {r}: oracle failure"
