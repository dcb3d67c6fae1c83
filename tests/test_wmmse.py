"""Tests for the multicell transceiver design solver."""

import itertools

import numpy as np
import pytest

from bsumkit import app_wmmse
from bsumkit.app_wmmse import (
    ChannelSet,
    NetworkSpec,
    _hermitian,
    _pad,
    _power_curve,
    _signal_stack,
    _unpad,
    gen_channels,
    init_transmitters,
    mmse_receiver,
    mse_matrix,
    power_per_cell,
    run_wmmse,
    sum_rate,
    update_transmitters,
)
from bsumkit.core import InvalidArgumentError, NumericFailure, RngStream, SolverError
from bsumkit.engine import SolveOptions, _iterate, _Stall
from bsumkit.verify import audit_trace


def scalar_network(noise=1.0, power=1.0, gain=1.0):
    spec = NetworkSpec.build(n_cells=1, users_per_cell=1, n_antennas=1,
                             streams=1, noise_power=noise, power=power)
    H = ChannelSet(np.full((1, 1, 1, 1), gain, dtype=np.complex128))
    return spec, H


def two_cell_network(seed=0):
    spec = NetworkSpec.build(n_cells=2, users_per_cell=1, n_antennas=2,
                             streams=1, noise_power=1.0, power=1.0)
    return spec, gen_channels(spec, RngStream(seed))


# Per-user loops that the batched stacks replaced, kept as the reference.

def loop_received_covariance(spec, H, V, u):
    cov = spec.noise_power[u] * np.eye(spec.n_antennas, dtype=np.complex128)
    for j in range(spec.n_users):
        X = H.gains[u, spec.user_cell[j]] @ V[j]
        cov += X @ X.conj().T
    return cov


def loop_logdet_pd(m):
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("matrix is not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.real(np.diag(chol)))))


def loop_sum_rate(spec, H, V):
    total = 0.0
    for u in range(spec.n_users):
        cov = loop_received_covariance(spec, H, V, u)
        own = H.gains[u, spec.user_cell[u]] @ V[u]
        interference = cov - own @ own.conj().T
        interference = 0.5 * (interference + interference.conj().T)
        cov = 0.5 * (cov + cov.conj().T)
        total += loop_logdet_pd(cov) - loop_logdet_pd(interference)
    return float(total)


def loop_mse_matrix(spec, H, V, U, u):
    own = U[u].conj().T @ H.gains[u, spec.user_cell[u]] @ V[u]
    cov = loop_received_covariance(spec, H, V, u)
    E = (np.eye(spec.streams[u], dtype=np.complex128) - own - own.conj().T
         + U[u].conj().T @ cov @ U[u])
    return 0.5 * (E + E.conj().T)


def loop_mmse_receiver(spec, H, V, u):
    cov = loop_received_covariance(spec, H, V, u)
    return np.linalg.solve(cov, H.gains[u, spec.user_cell[u]] @ V[u])


def loop_power_per_cell(spec, V):
    out = np.zeros(spec.n_cells)
    for u in range(spec.n_users):
        out[spec.user_cell[u]] += float(np.sum(np.abs(V[u]) ** 2))
    return out


def loop_power_curve(eigvals, rows_norm2):
    def p(mu, slope=False):
        denom = (eigvals + mu) ** 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = np.where(rows_norm2 > 1e-30, rows_norm2 / denom, 0.0)
            total = np.inf if np.any(np.isinf(terms)) or np.any(np.isnan(terms)) \
                else np.float64(np.sum(terms))
            rel = np.where(rows_norm2 > 1e-30, terms / total / (eigvals + mu), 0.0)
        return (total, np.float64(np.sum(rel))) if slope else total
    return p


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def newton_dual_variable(p, budget, tol=1e-10):
    """One cell's mu by the safeguarded Newton steps of the batched solve:
    zero when p(0) fits the budget, else the bracket [lo, hi] grown by
    doubling and Newton's step on 1/sqrt(p) - 1/sqrt(budget), the bracket's
    midpoint where that step leaves it. Also the curve evaluations that grew
    the bracket and that stepped to the root."""
    val, rel = p(0.0, slope=True)
    if not val > budget + tol * budget:
        return 0.0, 0, 0
    lo, hi, n_bracket = 0.0, 1.0, 0
    while True:
        hi_val, hi_rel = p(hi, slope=True)
        n_bracket += 1
        if not hi_val > budget:
            break
        lo, val, rel, hi = hi, hi_val, hi_rel, 2.0 * hi
    mu = lo
    for n_newton in range(1, 501):
        step = mu + (np.sqrt(val / budget) - 1.0) / rel
        mu = step if lo < step < hi else 0.5 * (lo + hi)
        val, rel = p(mu, slope=True)
        if abs(val - budget) <= tol * budget:
            return mu, n_bracket, n_newton
        lo, hi = (mu, hi) if val > budget else (lo, mu)
    raise SolverError("did not converge")


def loop_update_transmitters(spec, H, U, W, tol=1e-10):
    N = spec.n_antennas
    out = [None] * spec.n_users
    for k in range(spec.n_cells):
        J = np.zeros((N, N), dtype=np.complex128)
        for j in range(spec.n_users):
            Hjk = H.gains[j, k]
            J += Hjk.conj().T @ U[j] @ W[j] @ U[j].conj().T @ Hjk
        eigvals, Q = np.linalg.eigh(0.5 * (J + J.conj().T))
        eigvals = np.maximum(eigvals, 0.0)
        users = [u for u in range(spec.n_users) if spec.user_cell[u] == k]
        targets = [Q.conj().T @ H.gains[u, k].conj().T @ U[u] @ W[u] for u in users]
        p = loop_power_curve(eigvals, sum(np.sum(np.abs(t) ** 2, axis=1) for t in targets))
        mu = newton_dual_variable(p, spec.power[k], tol)[0]
        denom = eigvals + mu
        scale = np.where(denom > 1e-300, 1.0 / np.where(denom > 1e-300, denom, 1.0), 0.0)
        for u, t in zip(users, targets):
            out[u] = Q @ (scale[:, None] * t)
    return out


# The per-cell dual solve that the batched one replaced, kept as its
# bit-level reference: same linear algebra, one cell after another.

def cell_power_curve(eigvals, rows_norm2):
    keep = rows_norm2 > 1e-30
    lam, rows = eigvals[keep], rows_norm2[keep]

    def p(mu, slope=False):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = rows / (lam + mu) ** 2
            total = terms.sum()
            total = total if np.isfinite(total) else np.float64(np.inf)
            return (total, (terms / total / (lam + mu)).sum()) if slope else float(total)
    return p


def dual_inputs(spec, H, U, W):
    """Per cell the eigenvalues and eigenbasis of the quadratic term, the
    targets in that basis and the squared norms of their rows."""
    U, W = _pad(spec, U), _pad(spec, W)
    Uh = np.swapaxes(U, 1, 2).conj()
    J = np.einsum("jkba,jbc,jkcd->kad", H.gains.conj(), U @ W @ Uh, H.gains, optimize=True)
    eigvals, Q = np.linalg.eigh(_hermitian(J))
    eigvals = np.maximum(eigvals, 0.0)
    own_gain = H.gains[np.arange(spec.n_users), list(spec.user_cell)]
    V = np.swapaxes(own_gain, 1, 2).conj() @ U @ W
    Tt = [Q[k].conj().T @ V[cell] for k, cell in enumerate(spec._cell_slices)]
    rows_norm2 = np.array([np.sum(np.abs(t) ** 2, axis=(0, 2)) for t in Tt])
    return eigvals, Q, Tt, rows_norm2


def percell_update_transmitters(spec, H, U, W, tol=1e-10):
    """Transmitters, and per cell mu, the curve evaluations that grew its
    bracket and its Newton steps, and the rows dropped below the floor."""
    eigvals, Q, Tt, rows_norm2 = dual_inputs(spec, H, U, W)
    V = np.empty((spec.n_users, spec.n_antennas, max(spec.streams)), dtype=np.complex128)
    stats = []
    for k, cell in enumerate(spec._cell_slices):
        mu, n_bracket, n_newton = newton_dual_variable(
            cell_power_curve(eigvals[k], rows_norm2[k]), spec.power[k], tol)
        denom = eigvals[k] + mu
        scale = np.where(denom > 1e-300, 1.0 / np.where(denom > 1e-300, denom, 1.0), 0.0)
        V[cell] = Q[k] @ (scale[:, None] * Tt[k])
        stats.append({"mu": mu, "bracket": n_bracket, "newton": n_newton,
                      "dropped": int(np.sum(rows_norm2[k] <= 1e-30))})
    return [V[u, :, :d] for u, d in enumerate(spec.streams)], stats


def loop_run_wmmse(spec, H, V0, opts):
    U0 = [np.zeros((spec.n_antennas, d), dtype=np.complex128) for d in spec.streams]
    stall = _Stall(opts.tol, 2)

    def step(r, state, obj):
        V, U = state
        if r % 2 == 1:
            U = [loop_mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
        else:
            W = [np.linalg.inv(loop_mse_matrix(spec, H, V, U, u))
                 for u in range(spec.n_users)]
            V = loop_update_transmitters(spec, H, U, W)
        new_obj = 0.0
        for u in range(spec.n_users):
            new_obj += loop_logdet_pd(loop_mse_matrix(spec, H, V, U, u))
        extras = {"sum_rate_nats": loop_sum_rate(spec, H, V)}
        # min u = the new objective: the promised decrease is the decrease.
        return (V, U), new_obj, 1 - r % 2, None, extras, stall(obj, new_obj, new_obj)

    return _iterate((list(V0), U0), 0.0, opts, step)


def mixed_stream_network(seed=0):
    spec = NetworkSpec.build(n_cells=3, users_per_cell=(1, 3, 2), n_antennas=3,
                             streams=(1, 2, 3, 1, 2, 2),
                             noise_power=(1.0, 0.5, 2.0, 1.0, 0.8, 1.5),
                             power=(1.0, 2.0, 0.5))
    return spec, gen_channels(spec, RngStream(seed))


class TestNetworkSpec:

    def test_flat_user_indexing(self):
        spec = NetworkSpec.build(n_cells=2, users_per_cell=(2, 1), n_antennas=2)
        assert spec.n_users == 3
        assert spec.user_cell == (0, 0, 1)
        assert [list(range(3))[c] for c in spec._cell_slices] == [[0, 1], [2]]

    def test_cell_maps_computed_once_on_unequal_cells(self):
        spec = NetworkSpec.build(n_cells=3, users_per_cell=(1, 3, 2), n_antennas=2,
                                 streams=(1, 2, 1, 2, 2, 1))
        assert spec.user_cell is spec.user_cell
        assert spec.user_cell == (0, 1, 1, 1, 2, 2)
        assert spec._cell_slices is spec._cell_slices
        assert [list(range(6))[c] for c in spec._cell_slices] == [[0], [1, 2, 3], [4, 5]]
        V = init_transmitters(spec, RngStream(7))
        V = [(u + 1) * v for u, v in enumerate(V)]
        np.testing.assert_array_equal(power_per_cell(spec, V), loop_power_per_cell(spec, V))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            NetworkSpec.build(n_cells=0, users_per_cell=1, n_antennas=2)
        with pytest.raises(InvalidArgumentError):
            NetworkSpec.build(n_cells=1, users_per_cell=1, n_antennas=2, streams=3)
        with pytest.raises(InvalidArgumentError):
            NetworkSpec.build(n_cells=1, users_per_cell=1, n_antennas=2,
                              noise_power=0.0)

    @pytest.mark.parametrize("args, kwargs", [
        ((2, 1.9, 2), {}), ((2.0, 1, 2), {}), ((True, 1, 2), {}), ((1, 1, 2.5), {}),
        ((2, (1, True), 2), {}), ((1, 1, 2), {"streams": 1.0}), ((1, [1], 2), {"streams": "1"}),
    ])
    def test_counts_must_be_integers(self, args, kwargs):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            NetworkSpec.build(*args, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"noise_power": "2"}, {"noise_power": True}, {"power": True}, {"power": "12"},
        {"noise_power": ["1"]}, {"power": (np.bool_(True),)}, {"noise_power": None},
    ])
    def test_noise_and_power_must_be_real_numbers(self, kwargs):
        with pytest.raises(InvalidArgumentError, match="must be a real number"):
            NetworkSpec.build(1, 1, 2, **kwargs)

    @pytest.mark.parametrize("kwargs, what", [
        ({"noise_power": float("nan")}, "noise power"),
        ({"noise_power": (1.0, np.nan)}, "noise power"),
        ({"power": float("nan")}, "power budgets"),
        ({"power": np.float64("nan")}, "power budgets"),
        ({"noise_power": float("inf")}, "noise power"),
        ({"power": float("inf")}, "power budgets"),
        ({"power": (np.inf,)}, "power budgets"),
    ])
    def test_nan_noise_and_power_rejected(self, kwargs, what):
        """A NaN fails every comparison and an infinity passes ``> 0``; both
        are refused."""
        with pytest.raises(InvalidArgumentError, match=f"{what} must be positive"):
            NetworkSpec.build(1, 2, 2, **kwargs)

    def test_numpy_scalar_noise_and_power_accepted(self):
        spec = NetworkSpec.build(2, 1, 2, noise_power=np.float32(0.5),
                                 power=(np.int64(2), np.float64(3.0)))
        assert spec.noise_power == (0.5, 0.5) and spec.power == (2.0, 3.0)
        assert all(type(v) is float for v in spec.noise_power + spec.power)

    def test_numpy_integer_counts_accepted(self):
        spec = NetworkSpec.build(np.int64(2), np.int32(2), np.int64(3), streams=np.int8(2))
        assert spec == NetworkSpec.build(2, 2, 3, streams=2)
        assert all(type(n) is int for n in (spec.n_cells, spec.n_antennas,
                                             *spec.users_per_cell, *spec.streams))


class TestGenChannels:

    def test_deterministic_per_seed(self):
        spec, _ = two_cell_network()
        a = gen_channels(spec, RngStream(3)).gains
        b = gen_channels(spec, RngStream(3)).gains
        np.testing.assert_array_equal(a, b)

    def test_shape_single_user(self):
        spec = NetworkSpec.build(n_cells=1, users_per_cell=1, n_antennas=2)
        H = gen_channels(spec, RngStream(0))
        assert H.gains.shape == (1, 1, 2, 2)

    def test_unit_variance(self):
        """Empirical second moment of >= 1e5 entries within 1 +- 0.02."""
        spec = NetworkSpec.build(n_cells=2, users_per_cell=1, n_antennas=160)
        H = gen_channels(spec, RngStream(42))
        second_moment = float(np.mean(np.abs(H.gains) ** 2))
        assert H.gains.size >= 100_000
        np.testing.assert_allclose(second_moment, 1.0, atol=0.02)


class TestSumRate:

    def test_zero_transmitters_zero_rate(self):
        spec, H = two_cell_network()
        V = [np.zeros((2, 1), dtype=np.complex128) for _ in range(2)]
        assert sum_rate(spec, H, V) == 0.0

    def test_scalar_link_log_two(self):
        """h = v = 1, sigma^2 = 1: rate log(1 + 1) nats."""
        spec, H = scalar_network()
        rate = sum_rate(spec, H, [np.ones((1, 1), dtype=np.complex128)])
        np.testing.assert_allclose(rate, np.log(2.0), rtol=1e-12)

    def test_more_noise_means_less_rate(self):
        spec, H = two_cell_network(seed=5)
        V = init_transmitters(spec, RngStream(1))
        louder = NetworkSpec.build(n_cells=2, users_per_cell=1, n_antennas=2,
                                   streams=1, noise_power=2.0, power=1.0)
        assert sum_rate(louder, H, V) < sum_rate(spec, H, V)


class TestMseMatrix:

    def test_zero_receiver_gives_identity(self):
        spec, H = two_cell_network()
        V = init_transmitters(spec, RngStream(2))
        U = [np.zeros((2, 1), dtype=np.complex128) for _ in range(2)]
        for u in range(2):
            np.testing.assert_allclose(mse_matrix(spec, H, V, U, u), np.eye(1),
                                       atol=1e-15)

    def test_zero_transmitters(self):
        """V = 0: E = I + sigma^2 U^H U."""
        spec, H = two_cell_network()
        V = [np.zeros((2, 1), dtype=np.complex128) for _ in range(2)]
        U = [np.array([[0.5], [0.25j]]), np.array([[1.0], [0.0]])]
        for u in range(2):
            expected = np.eye(1) + U[u].conj().T @ U[u]
            np.testing.assert_allclose(mse_matrix(spec, H, V, U, u), expected,
                                       atol=1e-14)

    def test_scalar_case(self):
        """h = v = sigma = 1, u = 1/2: E = |1 - uhv|^2 + sigma^2 |u|^2 = 0.5."""
        spec, H = scalar_network()
        V = [np.ones((1, 1), dtype=np.complex128)]
        U = [np.full((1, 1), 0.5, dtype=np.complex128)]
        np.testing.assert_allclose(mse_matrix(spec, H, V, U, 0), [[0.5]],
                                   atol=1e-15)


class TestMmseReceiver:

    def test_scalar_half(self):
        spec, H = scalar_network()
        got = mmse_receiver(spec, H, [np.ones((1, 1), dtype=np.complex128)], 0)
        np.testing.assert_allclose(got, [[0.5]], atol=1e-15)

    def test_zero_transmitters_zero_receiver(self):
        spec, H = two_cell_network()
        V = [np.zeros((2, 1), dtype=np.complex128) for _ in range(2)]
        for u in range(2):
            np.testing.assert_array_equal(mmse_receiver(spec, H, V, u),
                                          np.zeros((2, 1)))

    @pytest.mark.parametrize("seed", range(4))
    def test_rate_identity_at_mmse_receivers(self, seed):
        """sum of logdet(E^-1) at fresh receivers equals the sum rate."""
        spec, H = two_cell_network(seed=seed)
        V = init_transmitters(spec, RngStream(seed + 10))
        U = [mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
        total = 0.0
        for u in range(spec.n_users):
            E = mse_matrix(spec, H, V, U, u)
            sign, val = np.linalg.slogdet(E)
            total -= val
        np.testing.assert_allclose(total, sum_rate(spec, H, V), atol=1e-9)


class TestUpdateTransmitters:

    def test_scalar_power_constraint_active(self):
        """Scalar cell with strong target: bisection lands on |v|^2 = 1."""
        spec, H = scalar_network()
        U = [np.full((1, 1), 0.5, dtype=np.complex128)]
        W = [np.full((1, 1), 2.0, dtype=np.complex128)]  # inverse of E = 0.5
        V = update_transmitters(spec, H, U, W)
        np.testing.assert_allclose(np.abs(V[0][0, 0]) ** 2, 1.0, rtol=1e-9)

    def test_zero_receivers_give_zero_transmitters(self):
        spec, H = two_cell_network()
        U = [np.zeros((2, 1), dtype=np.complex128) for _ in range(2)]
        W = [np.eye(1, dtype=np.complex128) for _ in range(2)]
        V = update_transmitters(spec, H, U, W)
        for v in V:
            np.testing.assert_array_equal(v, np.zeros((2, 1)))

    def test_inactive_budget_ignores_power_increase(self):
        spec, H = scalar_network()
        U = [np.full((1, 1), 2.0, dtype=np.complex128)]
        W = [np.eye(1, dtype=np.complex128)]
        V1 = update_transmitters(spec, H, U, W)
        assert float(np.abs(V1[0][0, 0]) ** 2) < 1.0  # unconstrained solution fits
        doubled = NetworkSpec.build(n_cells=1, users_per_cell=1, n_antennas=1,
                                    streams=1, noise_power=1.0, power=2.0)
        V2 = update_transmitters(doubled, H, U, W)
        np.testing.assert_allclose(V1[0], V2[0], atol=1e-14)

    def test_one_row_root_in_one_newton_step(self, curve_evaluations):
        # Eigenvalue 1e-152 and unit target against a budget of 2.5e303: the
        # root mu = 1e-152 sits about 2^-505 into the bracket [0, 1], past a
        # bisection's 500 steps, but one row makes the Newton step exact.
        spec, H = independent_cells(power=(0.5, 2.5e303))
        U = [np.ones((1, 1), dtype=np.complex128), np.full((1, 1), 1e-152 + 0j)]
        W = [np.ones((1, 1), dtype=np.complex128), np.full((1, 1), 1e152 + 0j)]
        V = update_transmitters(spec, H, U, W)
        np.testing.assert_allclose(power_per_cell(spec, V), spec.power, rtol=1e-10)
        assert curve_evaluations == [1 + 1 + 1]  # p(0), the bracket [0, 1], one step

    @pytest.mark.parametrize("seed", range(3))
    def test_budgets_respected(self, seed):
        spec, H = two_cell_network(seed=seed)
        V = init_transmitters(spec, RngStream(seed))
        U = [mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
        W = [np.linalg.inv(mse_matrix(spec, H, V, U, u))
             for u in range(spec.n_users)]
        V_new = update_transmitters(spec, H, U, W)
        power = power_per_cell(spec, V_new)
        assert np.all(power <= np.asarray(spec.power) + 1e-9)


def independent_cells(noise=(1.0, 1.0), power=(0.5, 1.0)):
    """Two one-antenna cells with one user each and no interference."""
    spec = NetworkSpec.build(n_cells=2, users_per_cell=1, n_antennas=1, streams=1,
                             noise_power=noise, power=power)
    gains = np.zeros((2, 2, 1, 1), dtype=np.complex128)
    gains[0, 0] = gains[1, 1] = 1.0
    return spec, ChannelSet(gains)


class TestBisectionFailures:
    """A cell whose budget the power solve cannot meet raises SolverError that
    names the cell, while cell 0 (unit target, budget 0.5) converges;
    run_wmmse adds the half-step."""

    def test_budget_not_bracketed(self):
        # Unit target against a budget of 1e-300: 1 / (1 + 2^400)^2 is still above it.
        spec, H = independent_cells(power=(0.5, 1e-300))
        one = [np.ones((1, 1), dtype=np.complex128)] * 2
        with pytest.raises(SolverError, match=r"failed to bracket the budget of cells \[1\]$"):
            update_transmitters(spec, H, one, one)

    def test_bisection_out_of_steps(self, curve_evaluations):
        # Eigenvalue 1e-170 and a target row of 1e-20 against a budget of 1e300:
        # at the root (eigenvalue + mu)^2 = 1e-320 is subnormal, so p moves in
        # relative steps of about 5e-4 there and comes no closer to the budget
        # than 1e-5: the cell takes all 500 steps after p(0) and its bracket.
        spec, H = independent_cells(power=(0.5, 1e300))
        U = [np.ones((1, 1), dtype=np.complex128), np.full((1, 1), 1e-160 + 0j)]
        W = [np.ones((1, 1), dtype=np.complex128), np.full((1, 1), 1e150 + 0j)]
        with pytest.raises(SolverError, match=r"did not converge for cells \[1\]$"):
            update_transmitters(spec, H, U, W)
        assert curve_evaluations == [1 + 1 + 500]

    def test_run_names_the_halfstep(self):
        # Noise and budget of 1e-125 put cell 1's root near 5e124, past 2^400.
        spec, H = independent_cells(noise=(1.0, 1e-125), power=(1.0, 1e-125))
        V0 = init_transmitters(spec, RngStream(0))
        with pytest.raises(SolverError, match=r"bracket the budget of cells \[1\]$") as info:
            run_wmmse(spec, H, V0, SolveOptions(max_iters=10))
        assert info.value.iteration == 2

    def test_run_names_the_halfstep_when_steps_run_out(self, monkeypatch):
        # A zero tolerance asks for an exact hit, which no step gives; the
        # first transmitter half-step fits both budgets, the second does not.
        monkeypatch.setattr(app_wmmse, "_POWER_REL_TOL", 0.0)
        spec, H = two_cell_network(seed=0)
        V0 = init_transmitters(spec, RngStream(0))
        with pytest.raises(SolverError, match=r"did not converge for cells \[0, 1\]$") as info:
            run_wmmse(spec, H, V0, SolveOptions(max_iters=10))
        assert info.value.iteration == 4


class TestInitTransmitters:

    def test_budget_split_exactly(self):
        spec = NetworkSpec.build(n_cells=2, users_per_cell=(2, 1), n_antennas=3,
                                 streams=2, power=(1.5, 0.5))
        V = init_transmitters(spec, RngStream(0))
        np.testing.assert_allclose(power_per_cell(spec, V), [1.5, 0.5],
                                   rtol=1e-12)

    def test_deterministic(self):
        spec, _ = two_cell_network()
        a = init_transmitters(spec, RngStream(4))
        b = init_transmitters(spec, RngStream(4))
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va, vb)


class TestRunWmmse:

    def test_two_cell_run_is_monotone_and_feasible(self):
        spec, H = two_cell_network(seed=0)
        V0 = init_transmitters(spec, RngStream(0))
        state, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=100, tol=1e-9))
        assert audit_trace(trace, slack=1e-9).passed
        for rec in trace.records:
            assert rec.extras["max_power_violation"] <= 1e-9

    def test_objective_is_minus_rate_at_receiver_steps(self):
        spec, H = two_cell_network(seed=1)
        V0 = init_transmitters(spec, RngStream(1))
        _, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=40, tol=1e-9))
        for rec in trace.records:
            if rec.block == 0:  # fresh minimum-error receivers
                np.testing.assert_allclose(-rec.objective,
                                           rec.extras["sum_rate_nats"], atol=1e-9)

    def test_all_zero_start_is_stationary(self):
        spec, H = two_cell_network(seed=2)
        V0 = [np.zeros((2, 1), dtype=np.complex128) for _ in range(2)]
        state, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=50))
        assert trace.terminal_status == "converged"
        for v in state.V:
            np.testing.assert_array_equal(v, np.zeros((2, 1)))
        assert trace.stationarity_gap == 0.0

    def test_infeasible_start_rejected(self):
        spec, H = two_cell_network()
        V0 = [np.full((2, 1), 10.0, dtype=np.complex128) for _ in range(2)]
        with pytest.raises(InvalidArgumentError):
            run_wmmse(spec, H, V0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imaginary_inf"])
    def test_nonfinite_start_rejected(self, bad):
        """The power check is blind to a NaN, which would otherwise fail the
        first half-step as a solver error: the start is refused up front."""
        spec, H = two_cell_network()
        V0 = init_transmitters(spec, RngStream(0))
        V0[1] = V0[1].copy()
        V0[1][0, 0] = bad
        with pytest.raises(InvalidArgumentError, match=r"V0\[1\] has a non-finite entry"):
            run_wmmse(spec, H, V0)

    def test_nonfinite_objective_fails_loudly(self):
        """Finite channel entries so large that the covariances overflow: the
        half-step that meets the non-finite objective raises, naming itself."""
        spec = NetworkSpec.build(1, 2, 2)
        H = gen_channels(spec, RngStream(0))
        V0 = init_transmitters(spec, RngStream(0).substream(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure, match=r"^iteration 1: objective is non-finite"):
                run_wmmse(spec, ChannelSet(H.gains * 1e200), V0, SolveOptions(max_iters=5))

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_too_few", "one_too_many"])
    def test_start_of_wrong_length_rejected(self, extra):
        spec, H = two_cell_network()
        V0 = init_transmitters(spec, RngStream(0))
        V0 = V0[:extra] if extra < 0 else V0 + V0[:extra]
        with pytest.raises(InvalidArgumentError):
            run_wmmse(spec, H, V0)

    def test_sum_rate_improves_from_init(self):
        spec, H = two_cell_network(seed=3)
        V0 = init_transmitters(spec, RngStream(3))
        before = sum_rate(spec, H, V0)
        state, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=200, tol=1e-10))
        after = sum_rate(spec, H, state.V)
        assert after >= before - 1e-12


def loop_tangent_bound(spec, H, V, U, V_new):
    """sum_u logdet E_u + tr(E_u^-1 E_u(U, V_new)) - d_u, with E_u = E_u(U, V):
    the tangent bound of logdet at V, evaluated at V_new."""
    total = 0.0
    for u, d in enumerate(spec.streams):
        E = loop_mse_matrix(spec, H, V, U, u)
        W_E_new = np.linalg.inv(E) @ loop_mse_matrix(spec, H, V_new, U, u)
        total += loop_logdet_pd(E) + np.trace(W_E_new).real - d
    return total


def recorded_halfsteps(monkeypatch):
    """(block, state, next state, min u) of every half-step taken, the
    post-run gap's included."""
    seen = []
    minimize = app_wmmse._HalfSteps.minimize

    def recording(self, part, state, iteration=1):
        new, umin = minimize(self, part, state, iteration)
        seen.append((part, state, new, umin))
        return new, umin

    monkeypatch.setattr(app_wmmse._HalfSteps, "minimize", recording)
    return seen


class TestHalfStepsAreBsum:
    """WMMSE is BSUM over two blocks: the receiver block's min u is the new
    objective, the transmitter block's min u is the tangent bound of logdet,
    which lies above the new objective; the post-run gap is f - min u."""

    @pytest.mark.parametrize("network", [two_cell_network, mixed_stream_network],
                             ids=["default", "mixed_stream"])
    def test_min_u_bounds_the_new_objective(self, network, monkeypatch):
        spec, H = network(0)
        V0 = init_transmitters(spec, RngStream(0).substream(1))
        seen = recorded_halfsteps(monkeypatch)
        _, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=1000, tol=1e-9))
        assert trace.terminal_status == "converged"
        assert len(seen) == trace.n_iterations + 2
        assert [umin for part, _, _, umin in seen if part == 0] == [
            new[-1] for part, _, new, _ in seen if part == 0]
        for part, (V, U, *_), new, umin in seen:
            if part == 1:
                f = new[-1]
                assert umin >= f - 1e-12 * (1.0 + abs(f))
                want = loop_tangent_bound(spec, H, _unpad(spec, V), _unpad(spec, U),
                                          _unpad(spec, new[0]))
                assert abs(umin - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_converged_default_runs_are_stationary(self, seed):
        spec, H = two_cell_network(seed)
        V0 = init_transmitters(spec, RngStream(seed).substream(1))
        _, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=400, tol=1e-9))
        assert trace.terminal_status == "converged"
        assert 0.0 <= trace.stationarity_gap <= 1e-8


def batched_curve(eigvals, rows_norm2, mu):
    with np.errstate(divide="ignore", invalid="ignore"):
        return _power_curve(np.asarray(eigvals, dtype=float),
                            np.asarray(rows_norm2, dtype=float))(np.asarray(mu, dtype=float))[0]


class TestCellPowerCurve:
    """Each row of the batched curve is the per-cell curve of that row, bit
    for bit, whatever the other rows hold."""

    @pytest.mark.parametrize("eigvals,rows,mu,finite", [
        ([0.0, 0.5, 2.0], [0.0, 0.3, 1.1], 0.0, True),    # zero eigenvalue, zero row
        ([0.0, 0.5, 2.0], [1e-3, 0.3, 1.1], 0.0, False),  # zero eigenvalue, row with power
        ([0.0, 0.5, 2.0], [1e-3, 0.3, 1.1], 0.25, True),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0, True),
        ([0.1, 0.5, 2.0], [1e-31, 0.3, 1.1], 0.0, True),  # row below the power floor
        ([np.nan, 0.5, 2.0], [0.2, 0.3, 1.1], 0.0, False),  # nan term: inf
        ([np.nan, 0.5, 2.0], [0.0, 0.3, 1.1], 0.0, True),   # nan on a zero row
    ])
    def test_matches_per_row_formula(self, eigvals, rows, mu, finite):
        other = ([1.0, 0.0, 3.0], [0.5, 0.0, 0.2])
        got = batched_curve([eigvals, other[0]], [rows, other[1]], [mu, 0.3])
        assert np.isfinite(got[0]) == finite
        assert got[0] == loop_power_curve(np.array(eigvals), np.array(rows))(mu)
        assert got[0] == cell_power_curve(np.array(eigvals), np.array(rows))(mu)
        assert got[1] == cell_power_curve(*map(np.array, other))(0.3)

    def test_matches_per_row_formula_on_random_rows(self):
        rng = np.random.default_rng(0)
        for N, trial in itertools.product(range(1, 13), range(40)):
            eigvals = np.maximum(rng.normal(size=(5, N)), 0.0)
            rows = rng.random((5, N)) * 10.0 ** rng.integers(-3, 3, size=(5, N))
            if trial % 2:  # one dropped row in every cell, at random places
                rows[np.arange(5), rng.integers(0, N, size=5)] = 0.0
            else:
                rows[rng.random((5, N)) < 0.3] = 0.0
                rows[rng.random((5, N)) < 0.1] = 1e-31
                rows[0] = 0.0  # a cell whose every row is dropped
            for scale in (0.0, 1e-3, 0.7, 10.0):
                mu = scale * rng.random(5)
                got = batched_curve(eigvals, rows, mu)
                for k in range(5):
                    assert got[k] == cell_power_curve(eigvals[k], rows[k])(mu[k])
                    want = loop_power_curve(eigvals[k], rows[k])(mu[k])
                    # numpy sums 8 or more terms pairwise, so a sum that keeps
                    # the dropped rows as zeros in place rounds differently there.
                    if N < 8:
                        assert got[k] == want
                    else:
                        np.testing.assert_allclose(got[k], want, rtol=1e-15)


@pytest.fixture
def curve_evaluations(monkeypatch):
    """Evaluations of each power curve built from here on, one count per curve,
    that is per transmitter solve."""
    counts, curve = [], app_wmmse._power_curve

    def counting_curve(eigvals, rows_norm2):
        p = curve(eigvals, rows_norm2)
        counts.append(0)

        def counted(mu):
            counts[-1] += 1
            return p(mu)
        return counted

    monkeypatch.setattr(app_wmmse, "_power_curve", counting_curve)
    return counts


def network_state(spec, H, seed):
    V = init_transmitters(spec, RngStream(seed).substream(1))
    U = [mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
    W = [np.linalg.inv(mse_matrix(spec, H, V, U, u)) for u in range(spec.n_users)]
    return U, W


def bisection_case(name, seed):
    """(spec, H, U, W) for one kind of transmitter half-step."""
    if name == "dense":
        spec = NetworkSpec.build(n_cells=8, users_per_cell=4, n_antennas=4)
        H = gen_channels(spec, RngStream(seed))
        return (spec, H, *network_state(spec, H, seed))
    if name == "mixed":  # unequal cells, mixed stream counts
        spec, H = mixed_stream_network(seed)
        return (spec, H, *network_state(spec, H, seed))
    if name == "slack":  # the middle cell's budget grows out of reach: mu = 0
        spec, H = mixed_stream_network(seed)
        U, W = network_state(spec, H, seed)
        return (NetworkSpec.build(3, spec.users_per_cell, 3, spec.streams,
                                  spec.noise_power, (1.0, 1e6, 0.5)), H, U, W)
    # Diagonal channels and receivers with a zero last row: the last antenna
    # carries no target, so rows drop; cell 2's receivers are all zero.
    spec = NetworkSpec.build(n_cells=3, users_per_cell=2, n_antennas=3, streams=2,
                             power=(1e-3, 1e-2, 1.0))
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    H = ChannelSet(diag[..., None] * np.eye(3))
    U = [np.vstack([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                    np.zeros((1, 2))]) for _ in range(6)]
    U[4][:] = U[5][:] = 0.0
    W = [m @ m.conj().T + np.eye(2) for m in (rng.normal(size=(6, 2, 2)) + 0j)]
    return spec, H, U, W


BISECTION_CASES = ["dense", "mixed", "slack", "zero_rows"]


def tight_bisection(p, budget, tol=1e-14):
    """The root of p(mu) = budget by plain bisection to a tolerance far
    below the solver's, as an independent reference for its mu."""
    lo, hi = 0.0, 1.0
    while p(hi) > budget:
        lo, hi = hi, 2.0 * hi
    for _ in range(1100):
        mu = 0.5 * (lo + hi)
        val = p(mu)
        if abs(val - budget) <= tol * budget:
            return mu
        lo, hi = (mu, hi) if val > budget else (lo, mu)
    raise AssertionError("reference bisection did not converge")


RUN_CONFIGS = {  # the benchmark's dense network and the CLI's default one
    "dense": (dict(n_cells=8, users_per_cell=4, n_antennas=4), 32),
    "default": (dict(n_cells=2, users_per_cell=1, n_antennas=2), 400),
}


class TestBatchedBisection:
    """All cells take their safeguarded Newton steps at once and land on the
    per-cell solve's mu, transmitters and bits, for the work of the slowest cell."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", BISECTION_CASES)
    def test_matches_per_cell_newton(self, name, seed):
        spec, H, U, W = bisection_case(name, seed)
        want, stats = percell_update_transmitters(spec, H, U, W)
        got = update_transmitters(spec, H, U, W)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert any(s["mu"] > 0 for s in stats)
        if name == "slack":
            assert stats[1]["mu"] == 0.0
        if name == "zero_rows":
            assert [s["dropped"] for s in stats] == [1, 1, 3]
            assert stats[0]["mu"] > 0 and stats[2]["mu"] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", BISECTION_CASES)
    def test_matches_tight_bisection(self, name, seed):
        spec, H, U, W = bisection_case(name, seed)
        eigvals, _, _, rows_norm2 = dual_inputs(spec, H, U, W)
        budget = np.asarray(spec.power)
        mu = app_wmmse._dual_variables(eigvals, rows_norm2, budget)
        assert np.count_nonzero(mu)
        for k in range(spec.n_cells):
            p = cell_power_curve(eigvals[k], rows_norm2[k])
            if mu[k] == 0.0:  # the unconstrained solution fits
                assert p(0.0) <= budget[k] * (1 + 1e-10)
                continue
            assert abs(p(mu[k]) - budget[k]) <= 1e-10 * budget[k]
            want = tight_bisection(p, budget[k])
            assert abs(mu[k] - want) <= 1e-9 * want

    @pytest.mark.parametrize("name", BISECTION_CASES)
    def test_curve_evaluations_bounded_by_slowest_cell(self, name, curve_evaluations):
        spec, H, U, W = bisection_case(name, 0)
        for _ in range(3):
            _, stats = percell_update_transmitters(spec, H, U, W)
            curve_evaluations.clear()
            V = update_transmitters(spec, H, U, W)
            assert curve_evaluations == [1 + max(s["bracket"] for s in stats)
                                         + max(s["newton"] for s in stats)]
            if sum(s["mu"] > 0 for s in stats) > 1:  # fewer than the cells' sum
                assert curve_evaluations[0] < sum(1 + s["bracket"] + s["newton"] for s in stats)
            if name == "zero_rows":
                break
            U = [mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
            W = [np.linalg.inv(mse_matrix(spec, H, V, U, u)) for u in range(spec.n_users)]

    @pytest.mark.parametrize("config", sorted(RUN_CONFIGS))
    def test_curve_evaluations_per_halfstep(self, config, curve_evaluations):
        """At most 10 power-curve evaluations per transmitter half-step; the
        bisection this replaced took about 35."""
        kwargs, max_iters = RUN_CONFIGS[config]
        spec = NetworkSpec.build(**kwargs)
        for seed in range(5):
            H = gen_channels(spec, RngStream(seed))
            V0 = init_transmitters(spec, RngStream(seed).substream(1))
            curve_evaluations.clear()
            _, trace = run_wmmse(spec, H, V0, SolveOptions(max_iters=max_iters, tol=1e-9))
            assert len(curve_evaluations) >= trace.n_iterations // 2
            assert max(curve_evaluations) <= 10


class TestBatchedMatchesPerUserLoops:
    """Mixed stream counts on unequal cells: the padded stacks give the
    per-user loops' values."""

    @pytest.mark.parametrize("seed", range(3))
    def test_helpers_match(self, seed):
        spec, H = mixed_stream_network(seed)
        V = init_transmitters(spec, RngStream(seed).substream(1))
        G = H.gains[:, list(spec.user_cell)]
        cov, own = _signal_stack(spec, G, _pad(spec, V))
        for u in range(spec.n_users):
            np.testing.assert_allclose(cov[u], loop_received_covariance(spec, H, V, u),
                                       rtol=0, atol=1e-12)
        U = [mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
        for u in range(spec.n_users):
            assert U[u].shape == (3, spec.streams[u])
            np.testing.assert_allclose(U[u], loop_mmse_receiver(spec, H, V, u),
                                       rtol=0, atol=1e-12)
        W = []
        for u in range(spec.n_users):
            E = mse_matrix(spec, H, V, U, u)
            np.testing.assert_allclose(E, loop_mse_matrix(spec, H, V, U, u),
                                       rtol=0, atol=1e-12)
            W.append(np.linalg.inv(E))
        np.testing.assert_allclose(sum_rate(spec, H, V), loop_sum_rate(spec, H, V),
                                   rtol=0, atol=1e-12)
        new = update_transmitters(spec, H, U, W)
        for u, (got, want) in enumerate(zip(new, loop_update_transmitters(spec, H, U, W))):
            assert got.shape == (3, spec.streams[u])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(2))
    def test_run_to_convergence_matches(self, seed):
        spec, H = mixed_stream_network(seed)
        V0 = init_transmitters(spec, RngStream(seed).substream(1))
        opts = SolveOptions(max_iters=1000, tol=1e-9)  # seed 1 takes 801 half-steps
        state, trace = run_wmmse(spec, H, V0, opts)
        _, oracle = loop_run_wmmse(spec, H, V0, opts)
        assert trace.terminal_status == oracle.terminal_status == "converged"
        assert trace.n_iterations == oracle.n_iterations
        for rec, ref in zip(trace.records, oracle.records):
            assert rec.block == ref.block
            assert abs(rec.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))
            assert abs(rec.extras["sum_rate_nats"] - ref.extras["sum_rate_nats"]) \
                <= 1e-9 * (1 + abs(ref.extras["sum_rate_nats"]))
        assert [v.shape for v in state.V] == [(3, d) for d in spec.streams]
        assert np.all(power_per_cell(spec, state.V) <= np.asarray(spec.power) * (1 + 1e-9))
