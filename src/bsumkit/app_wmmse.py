"""Sum-rate transceiver design for a multicell interference network.

Users are indexed flat, cell-major. The minimized objective is the sum over
users of logdet of the signal error covariance, which equals minus the sum
rate whenever the receivers are the fresh minimum-error ones. Alternation:
odd trace iterations update all receivers exactly, even iterations update
all transmitters by minimizing the tangent bound of logdet around the
current covariances (a quadratic problem with a per-cell power constraint,
whose dual variables all cells find at once by safeguarded Newton steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import InvalidArgumentError, NumericFailure, SolverError, Trace, _index, _real
from .engine import Schedule, SolveOptions, _upper_bound_loop, schedule_next

__all__ = [
    "NetworkSpec",
    "ChannelSet",
    "TransceiverState",
    "gen_channels",
    "sum_rate",
    "mse_matrix",
    "mmse_receiver",
    "update_transmitters",
    "init_transmitters",
    "power_per_cell",
    "run_wmmse",
]

_POWER_REL_TOL = 1e-10


@dataclass(frozen=True)
class NetworkSpec:
    """Cells, users per cell, antennas, streams, noise and power budgets."""

    n_cells: int
    users_per_cell: tuple[int, ...]
    n_antennas: int
    streams: tuple[int, ...]       # per flat user
    noise_power: tuple[float, ...]  # per flat user
    power: tuple[float, ...]        # per cell

    @staticmethod
    def build(n_cells: int, users_per_cell, n_antennas: int, streams=1,
              noise_power=1.0, power=1.0) -> "NetworkSpec":
        n_cells = _index(n_cells, "n_cells", least=1)
        n_antennas = _index(n_antennas, "n_antennas", least=1)
        users_per_cell = _items(users_per_cell, n_cells,
                                lambda v: _index(v, "users_per_cell", least=1))
        if len(users_per_cell) != n_cells:
            raise InvalidArgumentError("users_per_cell must list one count per cell")
        n_users = sum(users_per_cell)
        streams = _items(streams, n_users, lambda v: _index(v, "streams", least=1))
        if len(streams) != n_users or any(d > n_antennas for d in streams):
            raise InvalidArgumentError("streams must satisfy 1 <= d <= n_antennas per user")
        noise_power = _items(noise_power, n_users, lambda v: _real(v, "noise power", "positive"))
        if len(noise_power) != n_users:
            raise InvalidArgumentError("noise power must list one value per user")
        power = _items(power, n_cells, lambda v: _real(v, "power budgets", "positive"))
        if len(power) != n_cells:
            raise InvalidArgumentError("power budgets must list one value per cell")
        return NetworkSpec(n_cells, users_per_cell, n_antennas, streams,
                           noise_power, power)

    @property
    def n_users(self) -> int:
        return sum(self.users_per_cell)

    @cached_property
    def user_cell(self) -> tuple[int, ...]:
        return tuple(k for k, cnt in enumerate(self.users_per_cell) for _ in range(cnt))

    @cached_property
    def _cell_slices(self) -> tuple[slice, ...]:
        ends = np.cumsum(self.users_per_cell).tolist()
        return tuple(slice(end - cnt, end) for end, cnt in zip(ends, self.users_per_cell))


def _items(value, n: int, rule) -> tuple:
    # One value for all n items, or a sequence of them, each through ``rule``.
    return tuple(rule(v) for v in ((value,) * n if np.ndim(value) == 0 else value))


@dataclass(frozen=True)
class ChannelSet:
    """gains[u, k] is the n_antennas x n_antennas channel from cell k to user u."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=np.complex128)
        if g.ndim != 4 or g.shape[2] != g.shape[3]:
            raise InvalidArgumentError("gains must have shape (n_users, n_cells, N, N)")
        if not np.all(np.isfinite(g.real)) or not np.all(np.isfinite(g.imag)):
            raise InvalidArgumentError("channel entries must be finite")
        object.__setattr__(self, "gains", g)


@dataclass(frozen=True)
class TransceiverState:
    V: tuple[np.ndarray, ...]
    U: tuple[np.ndarray, ...]


def gen_channels(spec: NetworkSpec, rng) -> ChannelSet:
    """Independent circular complex gaussian entries with unit variance."""
    gen = rng.generator()
    shape = (spec.n_users, spec.n_cells, spec.n_antennas, spec.n_antennas)
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return ChannelSet((re + 1j * im) / np.sqrt(2.0))


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _logdet_pd(m: np.ndarray):
    # logdet of a positive definite matrix, or of each matrix in a stack.
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("matrix is not positive definite") from exc
    return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)


def _sum_in_order(values) -> float:
    # Explicit left-to-right sum: builtin sum() rounds differently
    # (compensated summation from Python 3.12 on).
    total = 0.0
    for v in values:
        total += float(v)
    return total


def _pad(spec: NetworkSpec, mats) -> np.ndarray:
    # Per-user matrices as one stack, stream axes zero-padded to max(streams): a zero
    # column adds nothing to a covariance, an identity block to E. A stack passes through.
    if isinstance(mats, np.ndarray):
        return mats
    out = np.zeros((len(mats), max(map(len, mats)), max(spec.streams)), dtype=np.complex128)
    for u, m in enumerate(mats):
        out[u, :len(m), :np.shape(m)[1]] = m
    return out


def _unpad(spec: NetworkSpec, stack: np.ndarray) -> list[np.ndarray]:
    return [stack[u, :, :d] for u, d in enumerate(spec.streams)]


def _signal_stack(spec: NetworkSpec, G: np.ndarray, V: np.ndarray):
    # With G[u, j] = H[u, cell(j)]: cov[u] is noise plus every user's signal
    # as seen at receiver u, own[u] is user u's own signal there.
    X = np.einsum("ujab,jbd->uajd", G, V)
    Y = X.reshape(*X.shape[:2], -1)
    cov = Y @ np.swapaxes(Y, 1, 2).conj()
    cov += np.asarray(spec.noise_power)[:, None, None] * np.eye(V.shape[1])
    return _hermitian(cov), np.einsum("uaud->uad", X)


def _mse_stack(U: np.ndarray, cov: np.ndarray, own: np.ndarray) -> np.ndarray:
    Uh = np.swapaxes(U, 1, 2).conj()
    # The symmetric part of I - 2 U^H own + U^H cov U.
    return _hermitian(np.eye(U.shape[2]) - 2.0 * (Uh @ own) + Uh @ cov @ U)


def _rate(cov: np.ndarray, own: np.ndarray) -> float:
    interference = _hermitian(cov - own @ np.swapaxes(own, 1, 2).conj())
    return _sum_in_order(_logdet_pd(cov) - _logdet_pd(interference))


def sum_rate(spec: NetworkSpec, H: ChannelSet, V) -> float:
    """Achievable sum rate in nats, interference treated as noise."""
    return _rate(*_signal_stack(spec, H.gains[:, list(spec.user_cell)], _pad(spec, V)))


def mse_matrix(spec: NetworkSpec, H: ChannelSet, V, U, u: int) -> np.ndarray:
    """Error covariance of stream estimates for user u under receiver U[u]."""
    cov, own = _signal_stack(spec, H.gains[:, list(spec.user_cell)], _pad(spec, V))
    return _mse_stack(_pad(spec, U), cov, own)[u, :spec.streams[u], :spec.streams[u]]


def mmse_receiver(spec: NetworkSpec, H: ChannelSet, V, u: int) -> np.ndarray:
    """Receiver minimizing the error covariance in the semidefinite order."""
    cov, own = _signal_stack(spec, H.gains[:, list(spec.user_cell)], _pad(spec, V))
    return np.linalg.solve(cov, own)[u, :, :spec.streams[u]]


def power_per_cell(spec: NetworkSpec, V) -> np.ndarray:
    user_power = np.sum(np.abs(_pad(spec, V)) ** 2, axis=(1, 2))
    return np.bincount(spec.user_cell, weights=user_power, minlength=spec.n_cells)


def init_transmitters(spec: NetworkSpec, rng) -> list[np.ndarray]:
    """Random orthonormal columns, power budget split evenly inside each cell."""
    gen = rng.generator()
    N = spec.n_antennas
    out = []
    for k, d in zip(spec.user_cell, spec.streams):
        z = (gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))) / np.sqrt(2.0)
        q, _ = np.linalg.qr(z)
        scale = np.sqrt(spec.power[k] / (spec.users_per_cell[k] * d))
        out.append(scale * q[:, :d])
    return out


def _power_curve(eigvals: np.ndarray, rows_norm2: np.ndarray):
    # Power used by each cell against its dual variable, in the eigenbasis of
    # its quadratic term: p(mu)[k] = sum_n rows_norm2[k, n] / (eigvals[k, n] +
    # mu[k])^2 over the rows that carry power, inf where not finite, and from
    # the same terms -p'/(2p), which stays finite where p' would overflow.
    # Those rows move to the front and each sum stops at its cell's count: the
    # same bits as a sum over them alone (numpy sums 8 or more terms pairwise).
    keep = rows_norm2 > 1e-30
    order = np.argsort(~keep, axis=1, kind="stable")
    rows = np.take_along_axis(rows_norm2, order, axis=1)
    lam = np.take_along_axis(eigvals, order, axis=1)
    counts = keep.sum(axis=1)
    groups = [(m, counts == m) for m in sorted(set(counts.tolist()))]

    def total(terms: np.ndarray) -> np.ndarray:
        if len(groups) == 1:  # the usual case, without a mask's copies
            return terms[:, :groups[0][0]].sum(axis=1)
        return sum(np.where(sel, terms[:, :m].sum(axis=1), 0.0) for m, sel in groups)

    def p(mu: np.ndarray):
        denom = lam + mu[:, None]
        terms = rows / denom ** 2
        power = np.fmin(total(terms), np.inf)  # nan becomes inf
        return power, total(terms / power[:, None] / denom)
    return p


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _dual_variables(eigvals: np.ndarray, rows_norm2: np.ndarray,
                    budget: np.ndarray) -> np.ndarray:
    # mu per cell: zero where the unconstrained solution fits the budget, else
    # the root of p(mu) = budget in a bracket [lo, hi] grown by doubling, by
    # Newton steps on the concave, increasing 1/sqrt(p) - 1/sqrt(budget), which
    # climb to it quadratically and are exact for one row (More & Sorensen 1983).
    # A step that leaves the open bracket, as from p = inf, takes the midpoint.
    # Each evaluation narrows the bracket; a converged cell keeps its mu.
    p = _power_curve(eigvals, rows_norm2)
    tol = _POWER_REL_TOL * budget
    lo = np.zeros(len(budget))
    val, rel = p(lo)
    live = val > budget + tol
    if not np.count_nonzero(live):
        return lo
    hi, grow = live.astype(np.float64), live.copy()
    for _ in range(401):  # hi = 1, 2, 4, ..., 2^400
        hi_val, hi_rel = p(hi)
        grow &= hi_val > budget
        if not np.count_nonzero(grow):
            break
        lo, val, rel = (np.where(grow, x, y) for x, y in ((hi, lo), (hi_val, val), (hi_rel, rel)))
        hi = np.where(grow, 2.0 * hi, hi)
    if np.count_nonzero(grow):
        raise SolverError("power bisection failed to bracket the budget of cells "
                          f"{np.flatnonzero(grow).tolist()}")
    mu = lo
    for _ in range(500):
        step = mu + (np.sqrt(val / budget) - 1.0) / rel
        mu = np.where(live, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)), mu)
        val, rel = p(mu)
        live &= np.abs(val - budget) > tol
        if not np.count_nonzero(live):
            return mu
        above = live & (val > budget)
        lo = np.where(above, mu, lo)
        hi = np.where(live ^ above, mu, hi)
    raise SolverError(f"power bisection did not converge for cells {np.flatnonzero(live).tolist()}")


def update_transmitters(spec: NetworkSpec, H: ChannelSet, U, W) -> list[np.ndarray]:
    """Quadratic transmitter update under per-cell power budgets.

    Per cell the unconstrained stationarity condition is (J + mu I) V = T;
    used power is strictly decreasing in mu, so mu is zero when the
    unconstrained solution fits the budget and otherwise the root of used
    power = budget, to relative tolerance 1e-10, found by Newton steps
    safeguarded by a bisection bracket, all cells at once; a cell whose
    budget cannot be bracketed or met raises SolverError naming it. U and W
    may be per-user lists or stacks.
    """
    return _unpad(spec, _transmitter_stack(spec, H, U, W))


def _transmitter_stack(spec: NetworkSpec, H: ChannelSet, U, W) -> np.ndarray:
    U, W = _pad(spec, U), _pad(spec, W)
    Uh = np.swapaxes(U, 1, 2).conj()
    J = np.einsum("jkba,jbc,jkcd->kad", H.gains.conj(), U @ W @ Uh, H.gains, optimize=True)
    eigvals, Q = np.linalg.eigh(_hermitian(J))
    eigvals = np.maximum(eigvals, 0.0)
    own_gain = H.gains[np.arange(spec.n_users), list(spec.user_cell)]
    V = np.swapaxes(own_gain, 1, 2).conj() @ U @ W  # targets, then transmitters
    Tt = [Q[k].conj().T @ V[cell] for k, cell in enumerate(spec._cell_slices)]
    rows_norm2 = np.array([np.sum(np.abs(t) ** 2, axis=(0, 2)) for t in Tt])
    mu = _dual_variables(eigvals, rows_norm2, np.asarray(spec.power))
    denom = eigvals + mu[:, None]
    scale = np.where(denom > 1e-300, 1.0 / np.where(denom > 1e-300, denom, 1.0), 0.0)
    for k, cell in enumerate(spec._cell_slices):
        V[cell] = Q[k] @ (scale[k][:, None] * Tt[k])
    return V


class _HalfSteps:
    """The two blocks on the state (V, U, cov, own, f), f = sum_u logdet E_u(U, V):
    ``minimize`` returns (next state, min u). Block 0's min u is the new f. Block
    1's is the tangent bound at E0 = E(U, V_old), sum_u [logdet E0_u + tr(E0_u^-1
    E_u(U, V)) - d] with d the padded stream count, whose logdet terms sum to f."""

    def __init__(self, spec: NetworkSpec, H: ChannelSet):
        self.spec, self.H, self.G = spec, H, H.gains[:, list(spec.user_cell)]

    def minimize(self, part: int, state, iteration: int = 1):
        V, U, cov, own, f0 = state
        if part == 0:  # V is unchanged, and so is its covariance stack
            U = np.linalg.solve(cov, own)
        else:
            try:
                W = np.linalg.inv(_mse_stack(U, cov, own))
            except np.linalg.LinAlgError as exc:
                raise SolverError("error covariance is singular") from exc
            V = _transmitter_stack(self.spec, self.H, U, W)
            cov, own = _signal_stack(self.spec, self.G, V)
        E = _mse_stack(U, cov, own)
        f = _sum_in_order(_logdet_pd(E))
        if not math.isfinite(f):
            raise NumericFailure(f"objective is non-finite ({f!r})")
        umin = f if part == 0 else f0 + _sum_in_order(
            np.einsum("uab,uba->u", W, E).real - E.shape[-1])
        return (V, U, cov, own, f), umin


def run_wmmse(spec: NetworkSpec, H: ChannelSet, V0,
              opts: SolveOptions = SolveOptions()) -> tuple[TransceiverState, Trace]:
    """Alternate exact receiver updates with bounded transmitter updates.

    Each trace iteration is a half-step: block 0 is the receiver update,
    block 1 the transmitter update. The starting receivers are zero, which
    makes the starting objective exactly 0; all-zero transmitters are a
    stationary point and the run stalls there (documented behavior). ``V0``
    must be finite and fit the power budgets, as ``init_transmitters``' draws do.

    Half-steps run through the engine's upper-bound loop on the 2-block cyclic
    schedule: ``max_iters`` counts them, a failure names its half-step
    ("iteration r: ..."), the run converges as the BSUM drivers do, and the
    trace carries the stationarity gap at the final state.
    """
    if H.gains.shape[:3] != (spec.n_users, spec.n_cells, spec.n_antennas):
        raise InvalidArgumentError("channel shape does not match the network")
    V = [np.asarray(v, dtype=np.complex128) for v in V0]
    if len(V) != spec.n_users:
        raise InvalidArgumentError(f"V0 has {len(V)} matrices for {spec.n_users} users")
    for u, v in enumerate(V):
        if v.shape != (spec.n_antennas, spec.streams[u]):
            raise InvalidArgumentError(f"V0[{u}] has the wrong shape")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError(f"V0[{u}] has a non-finite entry")
    V = _pad(spec, V)
    budget = np.asarray(spec.power)  # init_transmitters' rounding grows with it
    if np.any(power_per_cell(spec, V) - budget > 1e-9 * np.maximum(1.0, budget)):
        raise InvalidArgumentError("V0 violates a cell power budget")

    halfsteps, schedule = _HalfSteps(spec, H), Schedule.cyclic(2)

    def choose(r: int, state):
        part = schedule_next(schedule, r)
        new, umin = halfsteps.minimize(part, state, r)
        return part, new, umin, {
            "sum_rate_nats": _rate(new[2], new[3]),
            "max_power_violation": float(np.max(power_per_cell(spec, new[0]) - budget))}

    # Zero receivers make every error covariance the identity, and f exactly 0.
    start = (V, np.zeros_like(V), *_signal_stack(spec, halfsteps.G, V), 0.0)
    (V, U, *_), trace = _upper_bound_loop(lambda s: s[-1], halfsteps, start, opts, choose, schedule)
    return TransceiverState(V=tuple(_unpad(spec, V)), U=tuple(_unpad(spec, U))), trace
