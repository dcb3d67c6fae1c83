"""Sum-rate transceiver design for a multicell interference network.

Users are indexed flat, cell-major. The minimized objective is the sum over
users of logdet of the signal error covariance, which equals minus the sum
rate whenever the receivers are the fresh minimum-error ones. Alternation:
odd trace iterations update all receivers exactly, even iterations update
all transmitters by minimizing the tangent bound of logdet around the
current covariances (a quadratic problem with a per-cell power constraint
solved by bisection on the dual variable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidArgumentError,
    NumericFailure,
    SolverError,
    Trace,
)
from .engine import SolveOptions, _iterate, _Stall

__all__ = [
    "NetworkSpec",
    "ChannelSet",
    "TransceiverState",
    "gen_channels",
    "sum_rate",
    "mse_matrix",
    "mmse_receiver",
    "logdet_surrogate",
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
        if n_cells < 1:
            raise InvalidArgumentError("need at least one cell")
        if isinstance(users_per_cell, int):
            users_per_cell = (users_per_cell,) * n_cells
        users_per_cell = tuple(int(i) for i in users_per_cell)
        if len(users_per_cell) != n_cells or any(i < 1 for i in users_per_cell):
            raise InvalidArgumentError("users_per_cell must list a positive count per cell")
        n_users = sum(users_per_cell)
        if n_antennas < 1:
            raise InvalidArgumentError("n_antennas must be positive")
        if isinstance(streams, int):
            streams = (streams,) * n_users
        streams = tuple(int(d) for d in streams)
        if len(streams) != n_users or any(d < 1 or d > n_antennas for d in streams):
            raise InvalidArgumentError("streams must satisfy 1 <= d <= n_antennas per user")
        if isinstance(noise_power, (int, float)):
            noise_power = (float(noise_power),) * n_users
        noise_power = tuple(float(s) for s in noise_power)
        if len(noise_power) != n_users or any(s <= 0 for s in noise_power):
            raise InvalidArgumentError("noise power must be positive per user")
        if isinstance(power, (int, float)):
            power = (float(power),) * n_cells
        power = tuple(float(p) for p in power)
        if len(power) != n_cells or any(p <= 0 for p in power):
            raise InvalidArgumentError("power budgets must be positive per cell")
        return NetworkSpec(n_cells, users_per_cell, n_antennas, streams,
                           noise_power, power)

    @property
    def n_users(self) -> int:
        return sum(self.users_per_cell)

    @property
    def user_cell(self) -> tuple[int, ...]:
        out = []
        for k, cnt in enumerate(self.users_per_cell):
            out.extend([k] * cnt)
        return tuple(out)

    def cell_users(self, k: int) -> list[int]:
        return [u for u, c in enumerate(self.user_cell) if c == k]


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


def _logdet_pd(m: np.ndarray) -> float:
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("matrix is not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.real(np.diag(chol)))))


def _received_covariance(spec: NetworkSpec, H: ChannelSet, V, u: int) -> np.ndarray:
    # Noise plus every user's signal as seen at receiver u.
    N = spec.n_antennas
    cov = spec.noise_power[u] * np.eye(N, dtype=np.complex128)
    for j in range(spec.n_users):
        Huj = H.gains[u, spec.user_cell[j]]
        X = Huj @ V[j]
        cov += X @ X.conj().T
    return cov


def sum_rate(spec: NetworkSpec, H: ChannelSet, V) -> float:
    """Achievable sum rate in nats, interference treated as noise."""
    total = 0.0
    for u in range(spec.n_users):
        cov = _received_covariance(spec, H, V, u)
        own = H.gains[u, spec.user_cell[u]] @ V[u]
        interference = cov - own @ own.conj().T
        interference = 0.5 * (interference + interference.conj().T)
        cov = 0.5 * (cov + cov.conj().T)
        total += _logdet_pd(cov) - _logdet_pd(interference)
    return float(total)


def mse_matrix(spec: NetworkSpec, H: ChannelSet, V, U, u: int) -> np.ndarray:
    """Error covariance of stream estimates for user u under receiver U[u]."""
    d = spec.streams[u]
    own = U[u].conj().T @ H.gains[u, spec.user_cell[u]] @ V[u]
    cov = _received_covariance(spec, H, V, u)
    E = (np.eye(d, dtype=np.complex128) - own - own.conj().T
         + U[u].conj().T @ cov @ U[u])
    return 0.5 * (E + E.conj().T)


def mmse_receiver(spec: NetworkSpec, H: ChannelSet, V, u: int) -> np.ndarray:
    """Receiver minimizing the error covariance in the semidefinite order."""
    cov = _received_covariance(spec, H, V, u)
    target = H.gains[u, spec.user_cell[u]] @ V[u]
    return np.linalg.solve(cov, target)


def logdet_surrogate(E: np.ndarray, E_hat: np.ndarray) -> float:
    """Tangent bound of logdet at E_hat, evaluated at E (logdet is concave)."""
    E = np.asarray(E, dtype=np.complex128)
    E_hat = np.asarray(E_hat, dtype=np.complex128)
    try:
        base = _logdet_pd(E_hat)
        w = np.linalg.solve(E_hat, E - E_hat)
    except (NumericFailure, np.linalg.LinAlgError) as exc:
        raise InvalidArgumentError("anchor covariance must be positive definite") from exc
    return float(base + np.real(np.trace(w)))


def power_per_cell(spec: NetworkSpec, V) -> np.ndarray:
    out = np.zeros(spec.n_cells)
    for u in range(spec.n_users):
        out[spec.user_cell[u]] += float(np.sum(np.abs(V[u]) ** 2))
    return out


def init_transmitters(spec: NetworkSpec, rng) -> list[np.ndarray]:
    """Random orthonormal columns, power budget split evenly inside each cell."""
    gen = rng.generator()
    N = spec.n_antennas
    out = []
    for u in range(spec.n_users):
        k = spec.user_cell[u]
        d = spec.streams[u]
        z = (gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))) / np.sqrt(2.0)
        q, _ = np.linalg.qr(z)
        scale = np.sqrt(spec.power[k] / (spec.users_per_cell[k] * d))
        out.append(scale * q[:, :d])
    return out


def _cell_power_curve(eigvals: np.ndarray, rows_norm2: np.ndarray):
    # Power used by a cell as a function of the dual variable mu, in the
    # eigenbasis of the quadratic term: sum_n rows_norm2[n] / (lam_n + mu)^2.
    def p(mu: float) -> float:
        denom = (eigvals + mu) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(rows_norm2 > 1e-30, rows_norm2 / denom, 0.0)
        if np.any(np.isinf(terms)) or np.any(np.isnan(terms)):
            return np.inf
        return float(np.sum(terms))

    return p


def update_transmitters(spec: NetworkSpec, H: ChannelSet, U, W) -> list[np.ndarray]:
    """Quadratic transmitter update under per-cell power budgets.

    Per cell the unconstrained stationarity condition is (J + mu I) V = T;
    used power is strictly decreasing in mu, so mu is zero when the
    unconstrained solution fits the budget and otherwise found by bisection
    to relative tolerance 1e-10.
    """
    N = spec.n_antennas
    out: list[np.ndarray | None] = [None] * spec.n_users
    for k in range(spec.n_cells):
        J = np.zeros((N, N), dtype=np.complex128)
        for j in range(spec.n_users):
            Hjk = H.gains[j, k]
            J += Hjk.conj().T @ U[j] @ W[j] @ U[j].conj().T @ Hjk
        J = 0.5 * (J + J.conj().T)
        eigvals, Q = np.linalg.eigh(J)
        eigvals = np.maximum(eigvals, 0.0)
        users = spec.cell_users(k)
        targets = []
        rows_norm2 = np.zeros(N)
        for u in users:
            T = H.gains[u, k].conj().T @ U[u] @ W[u]
            Tt = Q.conj().T @ T
            targets.append(Tt)
            rows_norm2 += np.sum(np.abs(Tt) ** 2, axis=1)
        p = _cell_power_curve(eigvals, rows_norm2)
        budget = spec.power[k]
        if p(0.0) <= budget + _POWER_REL_TOL * budget:
            mu = 0.0
        else:
            lo, hi = 0.0, 1.0
            grow = 0
            while p(hi) > budget:
                hi *= 2.0
                grow += 1
                if grow > 400:
                    raise SolverError("power bisection failed to bracket the budget")
            for _ in range(500):
                mid = 0.5 * (lo + hi)
                val = p(mid)
                if abs(val - budget) <= _POWER_REL_TOL * budget:
                    break
                if val > budget:
                    lo = mid
                else:
                    hi = mid
            else:
                raise SolverError("power bisection did not converge")
            mu = mid
        denom = eigvals + mu
        scale = np.where(denom > 1e-300, 1.0 / np.where(denom > 1e-300, denom, 1.0), 0.0)
        for u, Tt in zip(users, targets):
            out[u] = Q @ (scale[:, None] * Tt)
    return [v for v in out]  # type: ignore[misc]


def run_wmmse(spec: NetworkSpec, H: ChannelSet, V0=None,
              opts: SolveOptions = SolveOptions()) -> tuple[TransceiverState, Trace]:
    """Alternate exact receiver updates with bounded transmitter updates.

    Each trace iteration is a half-step: block 0 is the receiver update,
    block 1 the transmitter update. The starting receivers are zero, which
    makes the starting objective exactly 0; all-zero transmitters are a
    stationary point and the run stalls there (documented behavior).

    Half-steps run through the engine's driver loop: ``max_iters`` counts
    them, ``record_timings`` fills ``elapsed_ns``, and the run converges
    below ``target_objective`` or once the objective decrease stays within
    ``tol * (1 + |f|)`` for two half-steps in a row.
    """
    if H.gains.shape[0] != spec.n_users or H.gains.shape[1] != spec.n_cells \
            or H.gains.shape[2] != spec.n_antennas:
        raise InvalidArgumentError("channel shape does not match the network")
    V = [np.asarray(v, dtype=np.complex128) for v in V0] if V0 is not None else None
    if V is None:
        raise InvalidArgumentError("V0 is required; use init_transmitters for a default")
    if len(V) != spec.n_users:
        raise InvalidArgumentError(f"V0 has {len(V)} matrices for {spec.n_users} users")
    for u, v in enumerate(V):
        if v.shape != (spec.n_antennas, spec.streams[u]):
            raise InvalidArgumentError(f"V0[{u}] has the wrong shape")
    budget = np.asarray(spec.power)  # init_transmitters' rounding grows with it
    if np.any(power_per_cell(spec, V) - budget > 1e-9 * np.maximum(1.0, budget)):
        raise InvalidArgumentError("V0 violates a cell power budget")

    U = [np.zeros((spec.n_antennas, spec.streams[u]), dtype=np.complex128)
         for u in range(spec.n_users)]
    stall = _Stall(opts.tol, 2)

    def step(r: int, state, obj: float):
        V, U = state
        if r % 2 == 1:
            U = [mmse_receiver(spec, H, V, u) for u in range(spec.n_users)]
            block = 0
        else:
            E = [mse_matrix(spec, H, V, U, u) for u in range(spec.n_users)]
            W = []
            for Eu in E:
                try:
                    W.append(np.linalg.inv(Eu))
                except np.linalg.LinAlgError as exc:
                    raise SolverError("error covariance is singular", iteration=r) from exc
            V = update_transmitters(spec, H, U, W)
            block = 1
        # Explicit left-to-right sum: builtin sum() rounds differently
        # (compensated summation from Python 3.12 on).
        new_obj = 0.0
        for u in range(spec.n_users):
            new_obj += _logdet_pd(mse_matrix(spec, H, V, U, u))
        extras = {
            "sum_rate_nats": sum_rate(spec, H, V),
            "max_power_violation": float(np.max(power_per_cell(spec, V)
                                                - np.asarray(spec.power))),
        }
        return (V, U), new_obj, block, None, extras, stall(obj, new_obj)

    # Starting objective: the sum of logdet of identity error covariances.
    (V, U), trace = _iterate((V, U), 0.0, opts, step)
    return TransceiverState(V=tuple(V), U=tuple(U)), trace
