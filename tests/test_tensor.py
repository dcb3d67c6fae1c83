"""Tests for the rank-R tensor decomposition solvers and helpers."""

import numpy as np
import pytest

from bsumkit import app_tensor, engine
from bsumkit.app_tensor import (
    CP_MODES,
    CpFactors,
    CpSurrogate,
    DenseTensor3,
    LambdaSchedule,
    als_factor_update,
    build_swamp_instance,
    cp_residual,
    cp_residual_rows,
    init_factors,
    khatri_rao,
    lambda_value,
    random_rank_instance,
    read_tensor,
    reconstruct,
    run_cp,
    swamp_factors,
    unfold,
    write_tensor,
)
from bsumkit.core import (
    InvalidArgumentError,
    ObjectiveOracle,
    RngStream,
    SolverError,
    make_block_structure,
)
from bsumkit.engine import SolveOptions
from bsumkit.verify import (
    SampleSpace,
    audit_trace,
    check_first_order_match,
    check_tightness,
    check_upper_bound,
)


def u_at(u, part, xi, anchor, iteration=1):
    """u at ``xi`` with the rest frozen at ``anchor``: a one-row ``values`` call."""
    return u.values(part, np.asarray(xi, dtype=np.float64)[None], anchor.values[None],
                    anchor.structure, iteration)[0]


def rank1_factors(a, b, c):
    return CpFactors(A=np.asarray(a, dtype=float).reshape(-1, 1),
                     B=np.asarray(b, dtype=float).reshape(-1, 1),
                     C=np.asarray(c, dtype=float).reshape(-1, 1))


class TestKhatriRao:

    def test_ones_absorb(self):
        out = khatri_rao(np.ones((2, 1)), np.ones((2, 1)))
        np.testing.assert_array_equal(out, np.ones((4, 1)))

    def test_scalar_columns(self):
        out = khatri_rao(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[3.0], [4.0], [6.0], [8.0]])

    def test_column_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            khatri_rao(np.ones((2, 1)), np.ones((2, 2)))


class TestUnfold:

    def test_all_ones(self):
        t = DenseTensor3(np.ones((2, 2, 2)))
        np.testing.assert_array_equal(unfold(t, 1), np.ones((2, 4)))

    def test_matches_factor_product(self):
        """unfold(reconstruct(F), 1) = A kr(C, B)^T exactly."""
        f = rank1_factors([1.0, 2.0], [1.0, 0.0], [1.0, 1.0])
        t = reconstruct(f)
        np.testing.assert_array_equal(unfold(t, 1),
                                      f.A @ khatri_rao(f.C, f.B).T)

    @pytest.mark.parametrize("mode", [2, 3])
    def test_other_modes_match_products(self, mode):
        rng = np.random.default_rng(0)
        f = CpFactors(rng.normal(size=(2, 2)), rng.normal(size=(3, 2)),
                      rng.normal(size=(4, 2)))
        t = reconstruct(f)
        if mode == 2:
            expected = f.B @ khatri_rao(f.C, f.A).T
        else:
            expected = f.C @ khatri_rao(f.B, f.A).T
        np.testing.assert_allclose(unfold(t, mode), expected, atol=1e-12)

    def test_invalid_mode(self):
        t = DenseTensor3(np.ones((2, 2, 2)))
        with pytest.raises(InvalidArgumentError):
            unfold(t, 4)


class TestCpResidual:

    def test_exact_factors_give_zero(self):
        f = rank1_factors([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        assert cp_residual(reconstruct(f), f) == 0.0

    def test_all_zero(self):
        f = rank1_factors([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        t = DenseTensor3(np.zeros((2, 2, 2)))
        assert cp_residual(t, f) == 0.0

    def test_ones_against_zero_factors(self):
        f = rank1_factors([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        t = DenseTensor3(np.ones((2, 2, 2)))
        np.testing.assert_allclose(cp_residual(t, f), np.sqrt(8.0), rtol=1e-15)

    def test_shape_mismatch(self):
        f = rank1_factors([1.0, 2.0, 3.0], [3.0, 4.0], [5.0, 6.0])
        t = DenseTensor3(np.ones((2, 2, 2)))
        with pytest.raises(InvalidArgumentError):
            cp_residual(t, f)

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruct_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        f = CpFactors(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)),
                      rng.normal(size=(2, 2)))
        assert cp_residual(reconstruct(f), f) <= 1e-12


class TestAlsFactorUpdate:

    def test_recovers_factor_given_the_others(self):
        true = rank1_factors([1.0, -2.0], [0.5, 1.5], [2.0, 1.0])
        t = reconstruct(true)
        start = CpFactors(A=np.array([[5.0], [5.0]]), B=true.B, C=true.C)
        updated = als_factor_update(t, start, mode=1, lam=0.0)
        after = CpFactors(A=updated, B=true.B, C=true.C)
        assert cp_residual(t, after) <= 1e-12

    def test_huge_lambda_freezes_the_factor(self):
        rng = np.random.default_rng(1)
        f = CpFactors(rng.uniform(size=(2, 2)), rng.uniform(size=(3, 2)),
                      rng.uniform(size=(3, 2)))
        t = random_rank_instance((2, 3, 3), 2, RngStream(5))
        updated = als_factor_update(t, f, mode=1, lam=1e12)
        np.testing.assert_allclose(updated, f.A, atol=1e-9)

    def test_zero_tensor_gives_zero_factor(self):
        t = DenseTensor3(np.zeros((2, 2, 2)))
        f = CpFactors(A=np.ones((2, 1)), B=np.array([[1.0], [0.0]]),
                      C=np.array([[0.0], [1.0]]))
        updated = als_factor_update(t, f, mode=1, lam=0.0)
        np.testing.assert_allclose(updated, np.zeros((2, 1)), atol=1e-15)

    def test_singular_gram_raises_without_regularization(self):
        f = CpFactors(A=np.ones((2, 2)),
                      B=np.array([[1.0, 1.0], [0.0, 0.0]]),
                      C=np.array([[1.0, 1.0], [0.0, 0.0]]))
        t = DenseTensor3(np.ones((2, 2, 2)))
        with pytest.raises(SolverError):
            als_factor_update(t, f, mode=1, lam=0.0)
        als_factor_update(t, f, mode=1, lam=0.1)  # regularized solve is fine

    def test_negative_lambda_rejected(self):
        f = rank1_factors([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        with pytest.raises(InvalidArgumentError):
            als_factor_update(reconstruct(f), f, mode=1, lam=-0.1)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_factors_raise_solver_error(self, lam, mode, bad):
        """Whichever factor holds the non-finite entry, the update raises
        the package's SolverError, never a raw numpy or scipy error."""
        t = build_swamp_instance(np.pi / 4)
        good = swamp_factors(np.pi / 4)
        for k in range(3):
            blocks = [good.A.copy(), good.B.copy(), good.C.copy()]
            blocks[k][0, 1] = bad
            with pytest.raises(SolverError):
                als_factor_update(t, CpFactors(*blocks), mode=mode, lam=lam)

    @staticmethod
    def _gram_lhs(f, mode):
        others = {1: (f.C, f.B), 2: (f.C, f.A), 3: (f.B, f.A)}[mode]
        kr = khatri_rao(*others)
        return kr.T @ kr

    def _assert_gate_matches_cond(self, t, factors):
        raised = []
        for f in factors:
            for mode in (1, 2, 3):
                singular = np.linalg.cond(self._gram_lhs(f, mode)) > 1e12
                try:
                    als_factor_update(t, f, mode=mode, lam=0.0)
                    got = False
                except SolverError:
                    got = True
                assert got == singular, (mode, np.linalg.cond(self._gram_lhs(f, mode)))
                raised.append(got)
        assert any(raised) and not all(raised)

    def test_gate_matches_cond_on_swamp_theta_sweep(self):
        t = build_swamp_instance(np.pi / 4)
        thetas = np.pi / 4 * np.logspace(0, -9, 46)
        self._assert_gate_matches_cond(t, [swamp_factors(th) for th in thetas])

    def test_gate_matches_cond_on_near_rank_deficient_grams(self):
        """Random factors, two of which have a last column that nearly
        repeats the first: the third factor's Gram is near rank-deficient.
        Below eps ~ 1e-8 some Grams get a computed eigenvalue <= 0 while
        their Cholesky factorization still succeeds; those must raise too."""
        rng = np.random.default_rng(8)
        t = random_rank_instance((4, 3, 5), 3, RngStream(8))
        factors = []
        for eps in np.logspace(-1, -12, 56):
            blocks = [rng.uniform(size=(n, 3)) for n in t.shape]
            for k in rng.permutation(3)[:2]:
                blocks[k][:, 2] = blocks[k][:, 0] + eps * rng.normal(size=t.shape[k])
            factors.append(CpFactors(*blocks))
        self._assert_gate_matches_cond(t, factors)

    def test_proximal_gate_refuses_systems_not_positive_definite(self):
        """With lam > 0 too small to lift a Gram matrix that rounding left
        singular or indefinite, the update raises SolverError, never
        LinAlgError, whenever Cholesky of gram + lam I fails (where a plain
        solve may still return a number)."""
        lam = 1e-300  # absorbed by every diagonal entry below
        ones = np.ones((2, 2))  # equal columns: gram is [[4, 4], [4, 4]]
        f = CpFactors(np.eye(2), ones, ones)
        with pytest.raises(SolverError):
            als_factor_update(reconstruct(f), f, mode=1, lam=lam)
        rng = np.random.default_rng(0)
        t = random_rank_instance((3, 4, 5), 3, RngStream(0))
        not_pd, raised = [], []
        for _ in range(40):
            blocks = [rng.uniform(size=(n, 3)) for n in t.shape]
            for k in (1, 2):
                blocks[k][:, 2] = blocks[k][:, 0] + 1e-9 * rng.normal(size=t.shape[k])
            f = CpFactors(*blocks)
            try:
                np.linalg.cholesky(self._gram_lhs(f, 1) + lam * np.eye(3))
                not_pd.append(False)
            except np.linalg.LinAlgError:
                not_pd.append(True)
            try:
                als_factor_update(t, f, mode=1, lam=lam)
                raised.append(False)
            except SolverError:
                raised.append(True)
            assert raised[-1] or not not_pd[-1]
        assert any(not_pd) and not all(raised)

    @pytest.mark.parametrize("lam", [0.0, 1e-7, 0.3])
    def test_solve_matches_scipy_cholesky(self, lam):
        """Within 1e-12 relative of scipy's Cholesky solve, with a backward
        stable residual: |X lhs - rhs| <= 4 R eps |X| |lhs| at rank R."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(3)
        for _ in range(20):
            shape = tuple(rng.integers(2, 6, size=3))
            rank = int(rng.integers(1, 5))
            t = DenseTensor3(rng.normal(size=shape))
            f = CpFactors(*(rng.normal(size=(n, rank)) for n in shape))
            for mode in (1, 2, 3):
                current, kr = app_tensor._mode_pieces(f, mode)
                lhs = kr.T @ kr + lam * np.eye(rank)
                rhs = unfold(t, mode) @ kr + lam * current
                expected = scipy_linalg.cho_solve(
                    scipy_linalg.cho_factor(lhs, lower=True), rhs.T).T
                got = als_factor_update(t, f, mode, lam)
                assert (np.linalg.norm(got - expected)
                        <= 1e-12 * np.linalg.norm(expected)), (mode, rank)
                assert (np.linalg.norm(got @ lhs - rhs)
                        <= 4 * rank * eps * np.linalg.norm(got) * np.linalg.norm(lhs))

    @pytest.mark.parametrize("seed", range(4))
    def test_regularized_update_strictly_improves(self, seed):
        """With lam > 0 the penalized objective drops unless block-optimal."""
        lam = 0.3
        t = random_rank_instance((3, 4, 2), 2, RngStream(seed, key=(1,)))
        f = init_factors(t, 2, RngStream(seed, key=(2,)))
        for mode in (1, 2, 3):
            updated = als_factor_update(t, f, mode=mode, lam=lam)
            current = (f.A, f.B, f.C)[mode - 1]
            if np.allclose(updated, current, atol=1e-12):
                continue
            merged = CpFactors(*[updated if m == mode else g
                                 for m, g in zip((1, 2, 3), (f.A, f.B, f.C))])
            before = cp_residual(t, f) ** 2
            after = (cp_residual(t, merged) ** 2
                     + lam * float(np.sum((updated - current) ** 2)))
            assert after < before - 1e-12


class TestLambdaValue:

    def test_diminishing_with_half_relative_residual(self):
        """lam0 + lam1 * 0.5 = 0.0500001 for the documented constants."""
        t = DenseTensor3(np.array([2.0, 0, 0, 0, 0, 0, 0, 0]).reshape(2, 2, 2))
        f = rank1_factors([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert cp_residual(t, f) / t.norm() == 0.5
        got = lambda_value(LambdaSchedule.diminishing(1e-7, 0.1), t, f)
        np.testing.assert_allclose(got, 0.0500001, rtol=1e-12)

    def test_exact_fit_floors_at_lam0(self):
        f = rank1_factors([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        t = reconstruct(f)
        got = lambda_value(LambdaSchedule.diminishing(1e-7, 0.1), t, f)
        np.testing.assert_allclose(got, 1e-7, rtol=1e-12)

    def test_constant_mode(self):
        f = rank1_factors([1.0], [1.0], [1.0])
        t = reconstruct(f)
        assert lambda_value(LambdaSchedule.constant(0.1), t, f) == 0.1

    def test_one_affine_rule(self):
        """A constant is the affine rule with lam1 = 0, and reads no residual:
        on a zero tensor, where a relative residual is undefined, it still holds."""
        assert LambdaSchedule.constant(0.1) == LambdaSchedule(0.1, 0.0)
        assert LambdaSchedule.diminishing(1e-7, 0.1) == LambdaSchedule(1e-7, 0.1)
        t = DenseTensor3(np.zeros((2, 2, 2)))
        f = rank1_factors([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert lambda_value(LambdaSchedule.constant(0.1), t, f) == 0.1
        assert lambda_value(LambdaSchedule.diminishing(0.3, 0.0), t, f) == 0.3

    def test_zero_tensor_rejected_in_diminishing_mode(self):
        t = DenseTensor3(np.zeros((2, 2, 2)))
        f = rank1_factors([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            lambda_value(LambdaSchedule.diminishing(), t, f)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LambdaSchedule.constant(-1.0)
        with pytest.raises(InvalidArgumentError):
            LambdaSchedule.diminishing(-1e-7, 0.1)


class TestSwampInstance:

    def test_right_angle_factors(self):
        f = swamp_factors(np.pi / 2)
        np.testing.assert_allclose(f.A, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                                   atol=1e-15)
        np.testing.assert_allclose(f.B[0], [3.0, 0.0, 0.0], atol=1e-15)

    def test_tensor_shape_and_exact_fit(self):
        theta = np.pi / 36
        t = build_swamp_instance(theta)
        assert t.shape == (2, 3, 3)
        assert cp_residual(t, swamp_factors(theta)) <= 1e-12

    def test_collinear_limit(self):
        """At theta = 0 the second factor columns become parallel."""
        f = swamp_factors(0.0)
        b1, b2 = f.B[:, 0], f.B[:, 1]
        cross = np.linalg.norm(np.cross(b1, b2))
        assert cross <= 1e-15


class TestRunCp:

    def test_rank_one_recovery_across_seeds(self):
        """Exactly decomposable 4x4x4: fit error < 1e-5 for >= 90/100 seeds."""
        t = random_rank_instance((4, 4, 4), 1, RngStream(123))
        hits = 0
        opts = SolveOptions(max_iters=150, tol=1e-14, target_objective=1e-5)
        for seed in range(100):
            _, trace = run_cp(t, 1, mode="als", opts=opts, rng=RngStream(seed))
            if trace.final_objective < 1e-5:
                hits += 1
        assert hits >= 90

    def test_rank_zero_rejected(self):
        t = random_rank_instance((3, 3, 3), 1, RngStream(0))
        with pytest.raises(InvalidArgumentError):
            run_cp(t, 0)

    def test_unknown_mode_rejected(self):
        t = random_rank_instance((3, 3, 3), 1, RngStream(0))
        with pytest.raises(InvalidArgumentError):
            run_cp(t, 1, mode="gradient")

    @pytest.mark.parametrize("mode", CP_MODES)
    def test_fit_error_trace_is_monotone(self, mode):
        """The recorded unsquared fit error never rises, in any mode."""
        t = random_rank_instance((3, 4, 3), 2, RngStream(7))
        opts = SolveOptions(max_iters=60, tol=1e-12)
        _, trace = run_cp(t, 2, mode=mode, opts=opts, rng=RngStream(11))
        report = audit_trace(trace, slack=1e-10)
        assert report.passed, report.witnesses

    def test_determinism_across_runs(self):
        t = build_swamp_instance(np.pi / 6)
        opts = SolveOptions(max_iters=40)
        _, t1 = run_cp(t, 3, mode="dim_prox", opts=opts, rng=RngStream(3))
        _, t2 = run_cp(t, 3, mode="dim_prox", opts=opts, rng=RngStream(3))
        np.testing.assert_array_equal(t1.objectives(), t2.objectives())

    def test_misum_modes_record_block_minima(self):
        t = random_rank_instance((3, 3, 3), 1, RngStream(2))
        _, trace = run_cp(t, 1, mode="mbi", opts=SolveOptions(max_iters=10),
                          rng=RngStream(4))
        assert all(len(rec.extras["block_minima"]) == 3 for rec in trace.records)

    def test_swamp_regularized_beats_plain_als_in_median(self):
        """Small-scale ordering probe on the stagnation instance."""
        theta = np.pi / 4
        t = build_swamp_instance(theta)
        opts = SolveOptions(max_iters=9000, tol=1e-14, target_objective=1e-5)
        counts = {"als": [], "dim_prox": []}
        for mode in counts:
            for seed in range(10):
                _, trace = run_cp(t, 3, mode=mode, opts=opts, rng=RngStream(seed))
                if mode == "dim_prox":
                    assert trace.terminal_status == "converged"
                counts[mode].append(trace.n_iterations)
        assert np.median(counts["dim_prox"]) < np.median(counts["als"])


class TestCpOncePerAnchor:
    """Each fact of a CP step is computed once per anchor."""

    N_ITERS = 30

    # Residuals in the first iteration and in each later one. With lambda = 0
    # mbi re-solves the block it moved last to the same bits, so that
    # candidate is the anchor, whose residual is already known.
    @pytest.mark.parametrize("mode,first,per_iter", [
        ("als", 1, 1), ("const_prox", 1, 1), ("dim_prox", 1, 1), ("mbi", 3, 2),
        ("misum", 3, 3)])
    def test_residual_and_lambda_counts(self, monkeypatch, mode, first, per_iter):
        counts = {"residual": 0, "lambda": 0}
        in_gap = []
        anchors = {}

        def count(name, fn):
            def counted(*args, **kwargs):
                if not in_gap:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def gap(*args, **kwargs):
            in_gap.append(True)
            try:
                return stationarity_gap(*args, **kwargs)
            finally:
                in_gap.pop()

        def minimize(self, part, anchor, iteration=1):
            if not in_gap:
                anchors[id(anchor)] = anchor
            return surrogate_minimize(self, part, anchor, iteration)

        stationarity_gap = engine._stationarity_gap
        surrogate_minimize = CpSurrogate.minimize
        monkeypatch.setattr(engine, "_stationarity_gap", gap)
        monkeypatch.setattr(CpSurrogate, "minimize", minimize)
        monkeypatch.setattr(app_tensor, "cp_residual", count("residual", cp_residual))
        monkeypatch.setattr(app_tensor, "_lambda", count("lambda", app_tensor._lambda))
        t = build_swamp_instance(np.pi / 4)
        _, trace = run_cp(t, 3, mode=mode, rng=RngStream(0),
                          opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-14))
        assert trace.n_iterations == self.N_ITERS
        # One residual at the start point, then the candidates' residuals.
        assert counts["residual"] == 1 + first + per_iter * (self.N_ITERS - 1)
        assert len(anchors) == self.N_ITERS
        assert counts["lambda"] == len(anchors)

    @pytest.mark.parametrize("mode", CP_MODES)
    def test_trace_objectives_are_cp_residual(self, mode):
        """Each trace objective is the public cp_residual at that iterate,
        bit for bit, although the run reads the fit error the surrogate kept."""
        t = build_swamp_instance(np.pi / 4)
        init = init_factors(t, 3, RngStream(0))
        _, trace = run_cp(t, 3, mode=mode, init=init,
                          opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-14))
        assert trace.n_iterations == self.N_ITERS
        assert trace.initial_objective == cp_residual(t, init)
        for r, rec in enumerate(trace.records, start=1):
            factors_r, _ = run_cp(t, 3, mode=mode, init=init,
                                  opts=SolveOptions(max_iters=r, tol=1e-14))
            assert rec.objective == cp_residual(t, factors_r)

    def test_mbi_solves_two_factors_per_iteration_after_the_first(self, monkeypatch):
        """With lambda = 0 a factor update reads only the other two factors,
        so at the point it made, mbi's re-solve of the block it moved last
        gives that point back, bit for bit what a fresh solve gives."""
        solves = []
        quiet = []

        def counted(*args, **kwargs):
            if not quiet:
                solves.append(1)
            return update(*args, **kwargs)

        def gap(*args, **kwargs):
            quiet.append(True)
            try:
                return stationarity_gap(*args, **kwargs)
            finally:
                quiet.pop()

        def minimize(self, part, anchor, iteration=1):
            z, umin = surrogate_minimize(self, part, anchor, iteration)
            quiet.append(True)
            try:
                fresh = surrogate_minimize(CpSurrogate(self.tensor, self.rank, self.schedule),
                                           part, anchor, iteration)
            finally:
                quiet.pop()
            np.testing.assert_array_equal(z.values, fresh[0].values)
            assert umin == fresh[1]
            return z, umin

        update = app_tensor.als_factor_update
        stationarity_gap = engine._stationarity_gap
        surrogate_minimize = CpSurrogate.minimize
        monkeypatch.setattr(app_tensor, "als_factor_update", counted)
        monkeypatch.setattr(engine, "_stationarity_gap", gap)
        monkeypatch.setattr(CpSurrogate, "minimize", minimize)
        t = build_swamp_instance(np.pi / 4)
        _, trace = run_cp(t, 3, mode="mbi", rng=RngStream(0),
                          opts=SolveOptions(max_iters=self.N_ITERS, tol=1e-14))
        assert trace.n_iterations == self.N_ITERS
        assert len(solves) == 3 + 2 * (self.N_ITERS - 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_remembered_update_still_refuses_a_non_finite_factor(self, bad):
        """Only the point a lambda = 0 update returned gives itself back for
        that block; an equal point built elsewhere is solved afresh, and one
        whose block is not finite is refused."""
        t = build_swamp_instance(np.pi / 4)
        x = init_factors(t, 3, RngStream(0)).to_point()
        u = CpSurrogate(t, 3, LambdaSchedule.constant(0.0))
        z, _ = u.minimize(0, x)
        assert u.minimize(0, z)[0] is z
        again, _ = u.minimize(0, x.with_part(0, z.part(0)))
        assert again is not z and again.values.tobytes() == z.values.tobytes()
        block = x.part(0).copy()
        block[1] = bad
        with pytest.raises(SolverError):
            u.minimize(0, x.with_part(0, block))

    @pytest.mark.parametrize("instance", ["swamp", "random"])
    @pytest.mark.parametrize("schedule", [LambdaSchedule.constant(0.0),
                                          LambdaSchedule.constant(0.1),
                                          LambdaSchedule.diminishing()])
    def test_minimize_value_is_the_model_value(self, instance, schedule):
        """minimize's min u equals values() at its argmin bit for bit, cached
        or cold, and equals the model written out with the public helpers."""
        t = (build_swamp_instance(np.pi / 4) if instance == "swamp"
             else random_rank_instance((3, 4, 2), 3, RngStream(4)))
        for seed in range(3):
            f = init_factors(t, 3, RngStream(seed))
            x = f.to_point()
            u = CpSurrogate(t, 3, schedule)
            lam = lambda_value(schedule, t, f)
            for part in range(3):
                z, umin = u.minimize(part, x)
                xi = z.part(part)
                assert umin == u_at(u, part, xi, x)
                assert umin == u_at(CpSurrogate(t, 3, schedule), part, xi, x)
                merged = CpFactors.from_point(x.with_part(part, xi), t.shape, 3)
                res = cp_residual(t, merged)
                diff = xi - x.part(part)
                assert umin == float(np.sqrt(res * res + lam * float(diff @ diff)))


class TestCpSurrogateContract:

    @pytest.mark.parametrize("schedule", [LambdaSchedule.constant(0.0),
                                          LambdaSchedule.constant(0.1),
                                          LambdaSchedule.diminishing()],
                             ids=["als_mbi", "const_prox", "dim_prox_misum"])
    def test_sampled_contract(self, schedule):
        """Under each CP mode's lambda the model is tight, bounds the fit
        error from above and matches its slope. f is the public fit error
        (cp_residual_rows), not the surrogate's objective() that run_cp
        hands the driver."""
        t = build_swamp_instance(np.pi / 36)
        structure = make_block_structure([n * 3 for n in t.shape])
        f = ObjectiveOracle(value=lambda rows: cp_residual_rows(t, rows, 3))
        u = CpSurrogate(t, 3, schedule)
        space = SampleSpace.boxed(structure)
        rng = RngStream(5)
        anchors = space.sample_points(rng.substream(0).generator(), 8)
        reports = [check_tightness(u, f, anchors),
                   check_upper_bound(u, f, space, rng.substream(1), n_samples=200),
                   check_first_order_match(u, f, anchors, space, rng.substream(2))]
        assert [(r.check, r.n_violations) for r in reports] == [
            ("tightness", 0), ("upper_bound", 0), ("first_order_match", 0)]
        assert [r.n_samples for r in reports] == [24, 200, 24]

    @pytest.mark.parametrize("part", [True, False, np.bool_(True), 1.0, 3, -1, (0, 1)])
    def test_part_must_be_one_factor_index(self, part):
        """A bool is not a block index: True would update factor block 1."""
        t = build_swamp_instance(np.pi / 4)
        x = init_factors(t, 3, RngStream(0)).to_point()
        u = CpSurrogate(t, 3, LambdaSchedule.constant(0.1))
        with pytest.raises(InvalidArgumentError, match="single blocks 0, 1, 2"):
            u.minimize(part, x)
        with pytest.raises(InvalidArgumentError, match="single blocks 0, 1, 2"):
            u_at(u, part, x.part(1), x)

    def test_numpy_integer_part_is_that_block(self):
        t = build_swamp_instance(np.pi / 4)
        x = init_factors(t, 3, RngStream(0)).to_point()
        u = CpSurrogate(t, 3, LambdaSchedule.constant(0.1))
        z, umin = u.minimize(np.int64(1), x)
        assert z.values.tobytes() == u.minimize(1, x)[0].values.tobytes()
        assert u_at(u, np.int32(1), z.part(1), x) == umin


class TestTensorFileIO:

    def test_roundtrip_exact(self, tmp_path):
        t = random_rank_instance((2, 3, 4), 2, RngStream(1))
        path = tmp_path / "instance.txt"
        write_tensor(path, t)
        back = read_tensor(path)
        np.testing.assert_array_equal(back.values, t.values)

    def test_header_format(self, tmp_path):
        t = DenseTensor3(np.arange(8.0).reshape(2, 2, 2))
        path = tmp_path / "t.txt"
        write_tensor(path, t)
        first = path.read_text().splitlines()[0]
        assert first == "2 2 2"

    @pytest.mark.parametrize("content", [
        "2 2\n1 2 3 4\n",
        "a 2 2\n" + " ".join(["0"] * 8) + "\n",
        "2 2 -2\n" + " ".join(["0"] * 8) + "\n",
        "2 2 2\n1 2 3\n",
        "2 2 2\n1 2 3 4 5 6 7 x\n",
    ])
    def test_malformed_files_rejected(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(InvalidArgumentError):
            read_tensor(path)


class TestInitFactors:

    def test_unit_interval_and_shapes(self):
        t = random_rank_instance((4, 5, 6), 2, RngStream(0))
        f = init_factors(t, 3, RngStream(9))
        assert f.A.shape == (4, 3) and f.B.shape == (5, 3) and f.C.shape == (6, 3)
        for m in (f.A, f.B, f.C):
            assert m.min() >= 0.0 and m.max() < 1.0

    def test_deterministic(self):
        t = random_rank_instance((3, 3, 3), 1, RngStream(0))
        f1 = init_factors(t, 2, RngStream(5))
        f2 = init_factors(t, 2, RngStream(5))
        np.testing.assert_array_equal(f1.A, f2.A)
        np.testing.assert_array_equal(f1.C, f2.C)
