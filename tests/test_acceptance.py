"""End-to-end acceptance gate.

Each test exercises one headline behavior of the package at its stated
tolerance and prints a single labeled PASS/FAIL line (visible with -s,
and on any failure).
"""

import json
import os
import time

import numpy as np

from bsumkit import app_classic, app_tensor, app_wmmse, verify
from bsumkit.cli import iterations_to_threshold, main, run_verify_suite
from bsumkit.core import ObjectiveOracle, Point, RngStream, make_block_structure
from bsumkit.engine import SolveOptions, run_bsca, run_bsum, run_misum, run_sum
from bsumkit.problems import QuadraticProblem, lasso_problem, separable_quartic_dc
from bsumkit.surrogates import ExactBlockSurrogate, QuadraticApprox, soft_threshold


def report(label, ok, detail):
    line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def scalar_point(x):
    return Point(np.array([float(x)]), make_block_structure([1]))


def random_spd_problem(seed, n=5):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return QuadraticProblem(m @ m.T + n * np.eye(n), rng.normal(size=n))


def two_block_exact(weights, targets):
    """Exact surrogate for sum_i w_i (x_i - t_i)^2 on scalar blocks."""
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    f = ObjectiveOracle(value=lambda v: float(np.sum(w * (v - t) ** 2)),
                        gradient=lambda v: 2.0 * w * (v - t))

    def solver(part, anchor):
        return t[anchor.structure.locate(part)[1]]

    return f, ExactBlockSurrogate(f, solver)


def quartic_coupled_problem():
    """f = (x1 - 1)^4 + (x2 + 2)^2 + x1 x2 / 10 on two scalar blocks."""
    def value(v):
        return float((v[0] - 1.0) ** 4 + (v[1] + 2.0) ** 2 + v[0] * v[1] / 10.0)

    def gradient(v):
        return np.array([4.0 * (v[0] - 1.0) ** 3 + v[1] / 10.0,
                         2.0 * (v[1] + 2.0) + v[0] / 10.0])

    return ObjectiveOracle(value=value, gradient=gradient)


def test_01_surrogate_check_battery():
    """Every shipped surrogate passes tightness, domination, and slope checks."""
    t0 = time.perf_counter()
    results = run_verify_suite()
    elapsed = time.perf_counter() - t0
    expected = {"proximal", "dc", "lipschitz", "quadratic_approx",
                "cp", "em_jensen"}
    reports = [r for rs in results.values() for r in rs]
    enough_samples = all(r.n_samples >= 1000 for r in reports
                         if r.check == "upper_bound")
    ok = (set(results) == expected and all(r.passed for r in reports)
          and enough_samples and elapsed < 30.0)
    report("01 surrogate check battery", ok,
           f"{len(reports)} reports over {len(results)} surrogates, "
           f"violations {sum(r.n_violations for r in reports)}, {elapsed:.1f}s")


def test_02_monotone_descent_audits():
    """Objective traces never rise beyond 1e-12 relative slack."""
    runs = []

    quad = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
    _, tr = run_sum(quad.objective(), quad.proximal_surrogate(c=1.0),
                    scalar_point(2.0))
    runs.append(("sum prox scalar", tr))

    f_dc, dc, _ = separable_quartic_dc([1])
    _, tr = run_sum(f_dc, dc, scalar_point(8.0), SolveOptions(max_iters=60))
    runs.append(("sum dc", tr))

    for seed in range(4):
        prob = random_spd_problem(seed)
        x0 = Point(np.zeros(5), make_block_structure([2, 3]))
        _, tr = run_bsum(prob.objective(), prob.proximal_surrogate(c=0.5), x0,
                         SolveOptions(max_iters=300, tol=1e-12))
        runs.append((f"bsum prox spd seed {seed}", tr))

    f2, u2 = two_block_exact([1.0, 2.0], [1.0, -1.0])
    x0 = Point(np.zeros(2), make_block_structure([1, 1]))
    _, tr = run_bsum(f2, u2, x0, SolveOptions(max_iters=20))
    runs.append(("bsum exact", tr))

    for k, (w, t) in enumerate([((1.0, 2.0), (1.0, -1.0)),
                                ((3.0, 1.0), (2.0, 0.0))]):
        f3, u3 = two_block_exact(w, t)
        _, tr = run_misum(f3, u3, Point(np.zeros(2), make_block_structure([1, 1])),
                          SolveOptions(max_iters=20))
        runs.append((f"misum exact {k}", tr))

    tensor = app_tensor.random_rank_instance((4, 4, 4), 2, RngStream(5, key=(1,)))
    for mode in app_tensor.CP_MODES:
        _, tr = app_tensor.run_cp(tensor, 2, mode=mode,
                                  opts=SolveOptions(max_iters=300, tol=1e-12),
                                  rng=RngStream(0))
        runs.append((f"cp {mode}", tr))

    spec = app_wmmse.NetworkSpec.build(n_cells=2, users_per_cell=1, n_antennas=2,
                                       streams=1, noise_power=1.0, power=1.0)
    H = app_wmmse.gen_channels(spec, RngStream(0))
    V0 = app_wmmse.init_transmitters(spec, RngStream(0).substream(1))
    _, tr = app_wmmse.run_wmmse(spec, H, V0, SolveOptions(max_iters=200, tol=1e-9))
    runs.append(("wmmse", tr))

    data = app_classic.two_cluster_dataset(RngStream(0), n_per_cluster=200)
    for mode in ("full", "block"):
        _, tr = app_classic.em_gmm(data, 2, mode=mode,
                                   opts=SolveOptions(max_iters=300, tol=1e-12))
        runs.append((f"em {mode}", tr))

    _, tr = app_classic.cccp_solve(dc, scalar_point(8.0),
                                   opts=SolveOptions(max_iters=60, tol=1e-18))
    runs.append(("cccp scalar", tr))
    f4, dc4, x4 = separable_quartic_dc([1, 1])
    _, tr = app_classic.cccp_solve(dc4, x4.with_values(np.array([8.0, -8.0])),
                                   opts=SolveOptions(max_iters=60, tol=1e-18))
    runs.append(("cccp two blocks", tr))

    _, tr = app_classic.proximal_point_solve(
        quad.objective(), quad.prox_block_minimize, scalar_point(2.0), c=1.0,
        opts=SolveOptions(max_iters=100, tol=1e-12))
    runs.append(("proximal point", tr))

    valley = QuadraticProblem(2.0 * np.ones((2, 2)), 2.0 * np.ones(2))
    shifted = ObjectiveOracle(value=lambda v: float((v[0] + v[1] - 1.0) ** 2))
    _, tr = app_classic.alternating_proximal_solve(
        shifted, valley.prox_block_minimize,
        Point(np.zeros(2), make_block_structure([1, 1])), c=1.0,
        opts=SolveOptions(max_iters=2000, tol=1e-14))
    runs.append(("alternating proximal", tr))

    _, s, x0 = lasso_problem(target=[2.0], weight=1.0, gamma=1.0)
    _, tr = app_classic.forward_backward_solve(
        s.nonsmooth_total, s.prox, s.smooth, beta=1.0, gamma=1.0, x0=x0,
        opts=SolveOptions(max_iters=200, tol=1e-14))
    runs.append(("forward backward", tr))

    fq = quartic_coupled_problem()
    _, tr = run_bsca(fq, QuadraticApprox(fq, t=0.25),
                     Point(np.zeros(2), make_block_structure([1, 1])),
                     SolveOptions(max_iters=200, tol=1e-8))
    runs.append(("bsca quartic", tr))

    audits = {name: verify.audit_trace(tr, slack=1e-12) for name, tr in runs}
    failed = sorted(name for name, rep in audits.items() if not rep.passed)
    worst = max(rep.worst_gap for rep in audits.values())
    ok = len(runs) >= 20 and not failed
    report("02 monotone descent", ok,
           f"{len(runs)} runs audited, worst uptick {worst:.2e}, "
           f"failures {failed or 'none'}")


def test_03_collinear_cp_benchmark_orderings():
    """Proximal variants beat plain alternating least squares on the
    near-collinear instance, and the cyclic sweep beats greedy selection.

    The collinearity angle is set so the bottleneck separates the variants
    while every variant can still reach the target within the iteration caps
    at this instance size; 100 seeded uniform [0, 1) initializations.
    """
    t0 = time.perf_counter()
    tensor = app_tensor.build_swamp_instance(np.pi / 4)
    eps = 1e-5
    counts = {}
    for mode in app_tensor.CP_MODES:
        cyclic = mode in ("als", "const_prox", "dim_prox")
        opts = SolveOptions(max_iters=9000 if cyclic else 3000, tol=1e-14,
                            target_objective=eps)
        vals = []
        for seed in range(100):
            _, trace = app_tensor.run_cp(tensor, 3, mode=mode, opts=opts,
                                         rng=RngStream(seed))
            hit = iterations_to_threshold(trace, eps)
            if hit is not None and cyclic:
                # Cyclic runs log one record per block update, three per sweep.
                hit = -(-hit // 3)
            vals.append(hit)
        counts[mode] = vals
    elapsed = time.perf_counter() - t0

    med = {m: float(np.median([v for v in vals if v is not None]))
           for m, vals in counts.items()}
    dim_done = [v for v in counts["dim_prox"] if v is not None]
    dim_mean = float(np.mean(dim_done))
    ok = (med["dim_prox"] < med["const_prox"] < med["als"]
          and med["als"] < med["mbi"]
          and len(dim_done) == 100
          and 10.0 <= dim_mean <= 500.0
          and elapsed < 180.0)
    report("03 collinear cp benchmark", ok,
           "medians " + ", ".join(f"{m} {med[m]:.1f}" for m in
                                  ("dim_prox", "const_prox", "als", "mbi", "misum"))
           + f"; dim_prox mean {dim_mean:.1f}, {elapsed:.0f}s")


def test_04_cccp_quartic_matches_cube_root_chain():
    """Each linearized step solves x^3 = previous x; the limit is 1."""
    t0 = time.perf_counter()
    f, dc, _ = separable_quartic_dc([1])
    x, trace = app_classic.cccp_solve(dc, scalar_point(8.0),
                                      opts=SolveOptions(max_iters=60, tol=1e-18))
    expected = 8.0
    chain_gap = 0.0
    for rec in trace.records:
        expected = np.cbrt(expected)
        chain_gap = max(chain_gap,
                        abs(rec.objective - f.value_at(np.array([expected]))))
    elapsed = time.perf_counter() - t0
    err = abs(x.values[0] - 1.0)
    ok = (err <= 1e-8 and trace.n_iterations <= 60 and chain_gap <= 1e-12
          and elapsed < 1.0)
    report("04 cccp cube-root chain", ok,
           f"|x - 1| = {err:.2e} after {trace.n_iterations} iterations, "
           f"chain gap {chain_gap:.2e}, {elapsed:.2f}s")


def test_05_forward_backward_lasso_fixed_point():
    """min |x| + (x - 2)^2 / 2: the subdifferential oracle gives x* = 1."""
    _, s, x0 = lasso_problem(target=[2.0], weight=1.0, gamma=1.0)
    x, _ = app_classic.forward_backward_solve(
        s.nonsmooth_total, s.prox, s.smooth, beta=1.0, gamma=1.0, x0=x0,
        opts=SolveOptions(max_iters=200, tol=1e-14))
    oracle = soft_threshold(np.array([2.0]), 1.0)[0]
    err = abs(x.values[0] - oracle)
    ok = oracle == 1.0 and err <= 1e-10
    report("05 lasso fixed point", ok, f"|x - {oracle}| = {err:.2e}")


def test_06_wmmse_invariants_and_grid_oracle():
    """Monotone transformed objective, feasible powers, the rate identity at
    every receiver step, and agreement with a brute-force power grid when
    there is no interference."""
    t0 = time.perf_counter()
    spec = app_wmmse.NetworkSpec.build(n_cells=2, users_per_cell=1, n_antennas=2,
                                       streams=1, noise_power=1.0, power=1.0)
    H = app_wmmse.gen_channels(spec, RngStream(0))
    V0 = app_wmmse.init_transmitters(spec, RngStream(0).substream(1))
    _, trace = app_wmmse.run_wmmse(spec, H, V0,
                                   SolveOptions(max_iters=400, tol=1e-9))
    monotone = verify.audit_trace(trace, slack=1e-12).passed
    worst_power = max(r.extras["max_power_violation"] for r in trace.records)
    identity_gap = max(abs(-r.objective - r.extras["sum_rate_nats"])
                       for r in trace.records if r.block == 0)

    lone = app_wmmse.NetworkSpec.build(n_cells=1, users_per_cell=1, n_antennas=2,
                                       streams=1, noise_power=1.0, power=1.0)
    H1 = app_wmmse.gen_channels(lone, RngStream(0))
    V1 = app_wmmse.init_transmitters(lone, RngStream(0).substream(1))
    _, t1 = app_wmmse.run_wmmse(lone, H1, V1, SolveOptions(max_iters=400, tol=1e-12))
    final = t1.records[-1].extras["sum_rate_nats"]
    smax = np.linalg.svd(H1.gains[0, 0], compute_uv=False)[0]
    grid = np.arange(0.0, 1.0 + 1e-3, 1e-3)
    oracle = float(np.log(1.0 + grid * smax ** 2).max())
    grid_gap = abs(final - oracle)
    elapsed = time.perf_counter() - t0
    ok = (monotone and worst_power <= 1e-9 and identity_gap <= 1e-9
          and grid_gap <= 1e-3 and elapsed < 30.0)
    report("06 wmmse invariants", ok,
           f"power violation {worst_power:.1e}, identity gap {identity_gap:.1e}, "
           f"grid gap {grid_gap:.1e}, {elapsed:.1f}s")


def test_07_gmm_em_and_blockwise_em_agree():
    """Both update orders find the planted clusters and the same likelihood."""
    data = app_classic.two_cluster_dataset(RngStream(0), n_per_cluster=500,
                                           centers=(-5.0, 5.0), sigma=1.0)
    empirical = np.sort([data[:500].mean(), data[500:].mean()])
    opts = SolveOptions(max_iters=500, tol=1e-13)
    full, t_full = app_classic.em_gmm(data, 2, opts=opts)
    block, t_block = app_classic.em_gmm(data, 2, mode="block", opts=opts)
    monotone = (verify.audit_trace(t_full, slack=1e-12).passed
                and verify.audit_trace(t_block, slack=1e-12).passed)
    mean_err = max(np.max(np.abs(np.sort(full.means) - empirical)),
                   np.max(np.abs(np.sort(block.means) - empirical)))
    nll_gap = abs(t_block.final_objective - t_full.final_objective)
    ok = monotone and mean_err <= 0.1 and nll_gap <= 1e-6
    report("07 em and blockwise em", ok,
           f"mean error {mean_err:.3f}, likelihood gap {nll_gap:.1e}")


def test_08_alternating_proximal_flat_valley():
    """(x1 + x2 - 1)^2 has a line of minimizers; the proximal terms still
    drive the objective to zero from the origin."""
    valley = QuadraticProblem(2.0 * np.ones((2, 2)), 2.0 * np.ones(2))
    f = ObjectiveOracle(value=lambda v: float((v[0] + v[1] - 1.0) ** 2))
    x, _ = app_classic.alternating_proximal_solve(
        f, valley.prox_block_minimize,
        Point(np.zeros(2), make_block_structure([1, 1])), c=1.0,
        opts=SolveOptions(max_iters=2000, tol=1e-14))
    final = f.value_at(x.values)
    ok = final <= 1e-12
    report("08 alternating proximal valley", ok, f"final objective {final:.2e}")


def test_09_bsca_armijo_recheck_and_stationarity():
    """Every accepted step re-satisfies the sufficient-decrease inequality,
    and the final point is stationary to 1e-6."""
    f = quartic_coupled_problem()
    opts = SolveOptions(max_iters=200, tol=1e-8)
    x, trace = run_bsca(f, QuadraticApprox(f, t=0.25),
                        Point(np.zeros(2), make_block_structure([1, 1])), opts)
    sigma = 0.01  # the sufficient-decrease constant of run_bsca's line search
    prev = trace.initial_objective
    n_steps = 0
    armijo_ok = True
    for rec in trace.records:
        if rec.step_size is not None:
            n_steps += 1
            fprime = rec.extras["directional_derivative"]
            if prev - rec.objective < -sigma * rec.step_size * fprime:
                armijo_ok = False
        prev = rec.objective
    grad_norm = float(np.linalg.norm(f.gradient_at(x.values)))
    ok = armijo_ok and n_steps >= 1 and grad_norm <= 1e-6
    report("09 bsca sufficient decrease", ok,
           f"{n_steps} accepted steps re-checked at sigma={sigma}, "
           f"final gradient norm {grad_norm:.2e}")


def test_10_cli_rerun_byte_identical(tmp_path):
    """The same config produces byte-identical artifacts on every run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"instance": "random", "dims": [3, 3, 3], "rank": 2,
                   "modes": ["als", "dim_prox", "misum"], "max_iters": 600},
        "seeds": [0, 1]}))
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = main(["cp", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        blobs.append({f: (out_dir / f).read_bytes()
                      for f in sorted(os.listdir(out_dir))})
    same = blobs[0] == blobs[1]
    ok = same and len(blobs[0]) == 8
    report("10 deterministic artifacts", ok,
           f"{len(blobs[0])} files compared, identical: {same}")
