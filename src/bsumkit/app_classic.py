"""Classic schemes expressed through the surrogate drivers.

Proximal point, alternating proximal minimization, proximal-gradient
splitting, the concave-convex procedure, and maximum-likelihood fitting of
1-d gaussian mixtures (joint or blockwise parameter updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlockIndex,
    ComponentCollapseError,
    FeasibleSetOracle,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    Trace,
    make_block_structure,
)
from .engine import SolveOptions, run_bsum, run_sum
from .surrogates import (
    DcLinearization,
    LipschitzQuadraticSurrogate,
    ProximalSurrogate,
)

__all__ = [
    "proximal_point_solve",
    "alternating_proximal_solve",
    "forward_backward_solve",
    "cccp_solve",
    "GmmParams",
    "two_cluster_dataset",
    "gmm_nll",
    "em_gmm",
]

_COLLAPSE_MASS = 1e-12


def proximal_point_solve(f: ObjectiveOracle,
                         prox_solver: Callable[[BlockIndex, Point, float], np.ndarray],
                         x0: Point, c=1.0,
                         opts: SolveOptions = SolveOptions()) -> tuple[Point, Trace]:
    """Whole-variable proximal iteration x+ = argmin f + |x - y|^2 / (2c)."""
    surrogate = ProximalSurrogate(f, prox_solver, c=c)
    return run_sum(f, surrogate, x0, opts)


def alternating_proximal_solve(f: ObjectiveOracle,
                               prox_solver: Callable[[BlockIndex, Point, float], np.ndarray],
                               x0: Point, c=1.0,
                               opts: SolveOptions = SolveOptions(),
                               feasible: Sequence[FeasibleSetOracle] | None = None,
                               ) -> tuple[Point, Trace]:
    """Blockwise proximal iteration over the cyclic schedule."""
    surrogate = ProximalSurrogate(f, prox_solver, c=c)
    return run_bsum(f, surrogate, x0, opts, feasible=feasible)


def forward_backward_solve(nonsmooth_value: Callable[[np.ndarray], float],
                           prox: Callable[[BlockIndex, np.ndarray, float], np.ndarray],
                           smooth: ObjectiveOracle, beta: float, gamma: float,
                           x0: Point,
                           opts: SolveOptions = SolveOptions()) -> tuple[Point, Trace]:
    """Proximal-gradient iteration on nonsmooth + smooth with modulus beta."""
    surrogate = LipschitzQuadraticSurrogate(
        smooth=smooth, nonsmooth_total=nonsmooth_value, prox=prox,
        beta=beta, gamma=gamma)
    return run_sum(surrogate.objective(), surrogate, x0, opts)


def cccp_solve(problem: DcLinearization, x0: Point,
               opts: SolveOptions = SolveOptions(),
               block_mode: bool = False) -> tuple[Point, Trace]:
    """Concave-convex procedure: repeatedly minimize the linearized bound."""
    f = problem.objective()
    if block_mode:
        return run_bsum(f, problem, x0, opts)
    return run_sum(f, problem, x0, opts)


@dataclass(frozen=True)
class GmmParams:
    """1-d gaussian mixture: weights on the simplex, means, variances > 0."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.variances, dtype=np.float64)
        if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size < 1:
            raise InvalidArgumentError("weights, means, variances must be equal-length vectors")
        if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-12 * max(1, w.size):
            raise InvalidArgumentError("weights must lie on the probability simplex")
        if np.any(s <= 0):
            raise InvalidArgumentError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", s)

    @property
    def n_components(self) -> int:
        return self.weights.size

    def to_point(self) -> Point:
        j = self.n_components
        structure = make_block_structure([j, j, j])
        return Point(np.concatenate([self.weights, self.means, self.variances]),
                     structure)

    @staticmethod
    def from_point(x: Point) -> "GmmParams":
        return GmmParams(weights=x.block(0), means=x.block(1), variances=x.block(2))


def two_cluster_dataset(rng, n_per_cluster: int = 500,
                        centers=(-5.0, 5.0), sigma: float = 1.0) -> np.ndarray:
    """Two labeled gaussian clusters, cluster 0 first in the array."""
    gen = rng.generator()
    a = centers[0] + sigma * gen.standard_normal(n_per_cluster)
    b = centers[1] + sigma * gen.standard_normal(n_per_cluster)
    return np.concatenate([a, b])


def _log_component_densities(data: np.ndarray, means: np.ndarray,
                             variances: np.ndarray) -> np.ndarray:
    # (T, J) matrix of log N(w_t; mu_j, s_j).
    diff = data[:, None] - means[None, :]
    return -0.5 * (np.log(2.0 * np.pi * variances)[None, :]
                   + diff * diff / variances[None, :])


def _weighted_log_densities(theta: GmmParams, data: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logw = np.log(theta.weights)
    return logw[None, :] + _log_component_densities(data, theta.means, theta.variances)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    m = np.max(a, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True))).ravel()


def gmm_nll(theta: GmmParams, data: np.ndarray) -> float:
    """Negative log-likelihood of the sample, in nats."""
    return float(-np.sum(_logsumexp(_weighted_log_densities(theta, data))))


def _responsibilities(theta: GmmParams, data: np.ndarray) -> np.ndarray:
    a = _weighted_log_densities(theta, data)
    lse = _logsumexp(a)
    return np.exp(a - lse[:, None])


class GmmJensenSurrogate:
    """Expected complete-data bound around the anchor parameters.

    u(theta, anchor) = sum_t sum_j gamma_tj (-log pi_j - log N(w_t; mu_j,
    s_j)) + sum gamma log gamma with gamma the anchor responsibilities;
    tight at the anchor and above the negative log-likelihood everywhere.
    Block 0 is the weights, 1 the means, 2 the variances; minimizing a part
    is the familiar reweighted update restricted to those parameters.
    """

    def __init__(self, data: np.ndarray, s_floor: float):
        data = np.asarray(data, dtype=np.float64).ravel()
        if data.size < 1:
            raise InvalidArgumentError("need at least one observation")
        if s_floor <= 0:
            raise InvalidArgumentError("variance floor must be positive")
        self.data = data
        self.s_floor = float(s_floor)
        self.clamp_events: list[int] = []

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        anchor_theta = GmmParams.from_point(anchor)
        theta = GmmParams.from_point(anchor.with_part(part, xi))
        gamma = _responsibilities(anchor_theta, self.data)
        logp = _weighted_log_densities(theta, self.data)
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy = np.where(gamma > 0, gamma * np.log(gamma), 0.0)
            cross = np.where(gamma > 0, gamma * logp, 0.0)
        return float(-np.sum(cross) + np.sum(entropy))

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        structure = anchor.structure
        blocks = structure.part_blocks(part)
        anchor_theta = GmmParams.from_point(anchor)
        gamma = _responsibilities(anchor_theta, self.data)
        mass = gamma.sum(axis=0)
        if np.any(mass < _COLLAPSE_MASS):
            j = int(np.argmin(mass))
            raise ComponentCollapseError(
                f"component {j} holds responsibility mass {mass[j]:.3e}")
        t_count = self.data.size
        weights = mass / t_count
        means = (gamma * self.data[:, None]).sum(axis=0) / mass
        new_means = means if 1 in blocks else anchor_theta.means
        diff = self.data[:, None] - new_means[None, :]
        variances = (gamma * diff * diff).sum(axis=0) / mass
        if np.any(variances < self.s_floor):
            # The post-run stationarity check repeats the last iteration.
            if 2 in blocks and self.clamp_events[-1:] != [iteration]:
                self.clamp_events.append(iteration)
            variances = np.maximum(variances, self.s_floor)
        pieces = {0: weights, 1: new_means, 2: variances}
        xi = np.concatenate([pieces[i] for i in blocks])
        return xi, self.value(part, xi, anchor, iteration)


def _default_start(data: np.ndarray, n_components: int) -> GmmParams:
    # Quantile-spread means, common variance, uniform weights: deterministic.
    qs = (np.arange(n_components) + 0.5) / n_components
    means = np.quantile(data, qs)
    var = float(np.var(data))
    if var <= 0:
        var = 1.0
    return GmmParams(
        weights=np.full(n_components, 1.0 / n_components),
        means=means,
        variances=np.full(n_components, var),
    )


def em_gmm(data: np.ndarray, n_components: int, theta0: GmmParams | None = None,
           mode: str = "full", opts: SolveOptions = SolveOptions(),
           s_floor: float | None = None) -> tuple[GmmParams, Trace]:
    """Fit a 1-d gaussian mixture by minimizing the negative log-likelihood.

    ``mode="full"`` reestimates all parameters jointly each iteration;
    ``mode="block"`` cycles weights, means, variances with responsibilities
    refreshed before each part update. Variances are kept at or above
    ``s_floor`` (default 1e-6 times the data variance); clamping events are
    reported in ``trace.warnings``.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    if n_components < 1:
        raise InvalidArgumentError("need at least one component")
    if data.size < 2:
        raise InvalidArgumentError("need at least two observations")
    if mode not in ("full", "block"):
        raise InvalidArgumentError(f"mode must be 'full' or 'block', got {mode!r}")
    if s_floor is None:
        s_floor = 1e-6 * float(np.var(data))
        if s_floor <= 0:
            s_floor = 1e-12
    theta0 = theta0 if theta0 is not None else _default_start(data, n_components)
    if theta0.n_components != n_components:
        raise InvalidArgumentError("theta0 has the wrong component count")
    surrogate = GmmJensenSurrogate(data, s_floor)
    x0 = theta0.to_point()
    structure = x0.structure
    f = ObjectiveOracle(
        value=lambda v: gmm_nll(GmmParams.from_point(Point(v, structure)), data))
    if mode == "full":
        x, trace = run_sum(f, surrogate, x0, opts)
    else:
        x, trace = run_bsum(f, surrogate, x0, opts)
    for it in surrogate.clamp_events:
        trace.warnings.append(f"variance clamped at floor {s_floor:.3e} in iteration {it}")
    return GmmParams.from_point(x), trace
