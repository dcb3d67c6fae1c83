"""Classic schemes expressed through the surrogate drivers.

Proximal point, alternating proximal minimization, proximal-gradient
splitting, the concave-convex procedure, and maximum-likelihood fitting of
1-d gaussian mixtures (joint or blockwise parameter updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import numpy.ma  # noqa: F401 - numpy loads it lazily; np.quantile reaches it via np.unique

from .core import (
    BlockIndex,
    BlockStructure,
    ComponentCollapseError,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    Trace,
    _index,
    _real,
    _with_part_rows,
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
    "gmm_nll_rows",
    "em_gmm",
    "EM_MODES",
]

EM_MODES = ("full", "block")

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
                               opts: SolveOptions = SolveOptions()) -> tuple[Point, Trace]:
    """Blockwise proximal iteration over the cyclic schedule."""
    surrogate = ProximalSurrogate(f, prox_solver, c=c)
    return run_bsum(f, surrogate, x0, opts)


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
        w, m, s = (np.asarray(v, dtype=np.float64) for v in (self.weights, self.means, self.variances))
        if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size < 1:
            raise InvalidArgumentError("weights, means, variances must be equal-length vectors")
        _check_mixture(w, m, s)
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
        return GmmParams(weights=x.part(0), means=x.part(1), variances=x.part(2))


def _check_mixture(w: np.ndarray, m: np.ndarray, s: np.ndarray) -> None:
    # GmmParams' rules for each row of (..., J) weights, means and variances.
    # Each test fails on a NaN: min() and sum() propagate it, and every
    # comparison with it is False.
    if not np.all((w.min(axis=-1) >= 0)
                  & (abs(w.sum(axis=-1) - 1.0) <= 1e-12 * max(1, w.shape[-1]))):
        raise InvalidArgumentError("weights must lie on the probability simplex")
    if not (np.isfinite(m).all() and np.isfinite(s).all()):
        raise InvalidArgumentError("means and variances must be finite")
    if not np.all(s.min(axis=-1) > 0):
        raise InvalidArgumentError("variances must be positive")


def _mixture_rows(rows: np.ndarray) -> SimpleNamespace:
    # GmmParams' fields, (S, J) each, of the mixture in each row of an (S, 3J)
    # parameter stack, checked as GmmParams checks one.
    rows = np.asarray(rows, dtype=np.float64)
    j = rows.shape[-1] // 3
    if rows.ndim != 2 or j < 1 or rows.shape[1] != 3 * j:
        raise InvalidArgumentError("weights, means, variances must be equal-length vectors")
    w, m, s = rows[:, :j], rows[:, j:2 * j], rows[:, 2 * j:]
    _check_mixture(w, m, s)
    return SimpleNamespace(weights=w, means=m, variances=s)


def two_cluster_dataset(rng, n_per_cluster: int = 500,
                        centers=(-5.0, 5.0), sigma: float = 1.0) -> np.ndarray:
    """Two labeled gaussian clusters, cluster 0 first in the array."""
    gen = rng.generator()
    a = centers[0] + sigma * gen.standard_normal(n_per_cluster)
    b = centers[1] + sigma * gen.standard_normal(n_per_cluster)
    return np.concatenate([a, b])


def _log_component_densities(data: np.ndarray, means: np.ndarray,
                             variances: np.ndarray) -> np.ndarray:
    # (J, T) array, row j = log N(w_t; mu_j, s_j) = -0.5 (log 2 pi s_j + (w_t - mu_j)^2 / s_j);
    # (S, J, T) for (S, J) means and variances.
    rows = data - means[..., None]
    rows *= rows
    rows /= variances[..., None]
    rows += np.log(2.0 * np.pi * variances)[..., None]
    rows *= -0.5
    return rows


def _weighted_log_densities(theta: GmmParams | SimpleNamespace, data: np.ndarray) -> np.ndarray:
    # (J, T) array, row j = log pi_j + log N(w_t; mu_j, s_j); (S, J, T) for _mixture_rows.
    rows = _log_component_densities(data, theta.means, theta.variances)
    with np.errstate(divide="ignore"):
        rows += np.log(theta.weights)[..., None]
    return rows


def _logsumexp(a: np.ndarray) -> np.ndarray:
    # logsumexp over the components (axis -2) of the (J, T) matrix or (S, J, T)
    # stack, shifted by the exact max; numpy adds the J contiguous rows one
    # after the other.
    m = np.max(a, axis=-2, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    t = np.subtract(a, m)
    total = np.sum(np.exp(t, out=t), axis=-2)
    return np.add(m[..., 0, :], np.log(total, out=total), out=total)


def _flat_sum(a: np.ndarray) -> np.ndarray:
    # Sum over the trailing (J, T) axes: one pairwise sum of the J * T
    # contiguous numbers of each matrix.
    return a.reshape(*a.shape[:-2], -1).sum(axis=-1)


def _gamma_in_place(logd: np.ndarray, lse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Responsibilities, built in place on the log-densities (J, T) or (S, J, T)
    # with logsumexp ``lse``, and sum gamma log gamma of each matrix.
    gamma = np.exp(np.subtract(logd, lse[..., None, :], out=logd), out=logd)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(gamma)
        terms *= gamma
    terms[~(gamma > 0)] = 0.0
    return gamma, _flat_sum(terms)


def gmm_nll(theta: GmmParams, data: np.ndarray) -> float:
    """Negative log-likelihood of the sample, in nats."""
    return float(-_logsumexp(_weighted_log_densities(theta, data)).sum())


def gmm_nll_rows(rows: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``gmm_nll`` of the mixture in each row of an (S, 3J) stack of weights,
    means and variances, each row checked as ``GmmParams`` checks one."""
    return -_logsumexp(_weighted_log_densities(_mixture_rows(rows), data)).sum(axis=-1)


class GmmJensenSurrogate:
    """Expected complete-data bound around the anchor parameters.

    u(theta, anchor) = sum_t sum_j gamma_tj (-log pi_j - log N(w_t; mu_j,
    s_j)) + sum gamma log gamma with gamma the anchor responsibilities;
    tight at the anchor and above the negative log-likelihood everywhere.
    Block 0 is the weights, 1 the means, 2 the variances; minimizing a part
    is the familiar reweighted update restricted to those parameters.

    Every per-point array is (J, T), one contiguous row per component.
    ``minimize`` keeps the weighted log-density matrix of the point it
    returns, so ``objective()``, the negative log-likelihood, takes its
    logsumexp from it, and the responsibilities at that point as the next
    anchor come from the same numbers: gamma is built in place on the
    anchor's matrix. Each number comes from the same expressions as in
    ``gmm_nll``, computed once. The M-step's sums over the sample are numpy's
    pairwise sums of contiguous rows.
    """

    def __init__(self, data: np.ndarray, s_floor: float):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1 or data.size < 1:
            raise InvalidArgumentError(f"data must be a 1-d sample, got shape {data.shape}")
        self.data = data
        self.s_floor = _real(s_floor, "variance floor", "positive")
        # (vector, [log-density matrix or None, row logsumexp or None]) for the
        # anchor and the points minimize returned at it, matched with ``is``.
        self._points: list[tuple[np.ndarray, list]] = []
        # (anchor vector, gamma, sum gamma log gamma).
        self._anchor: tuple[np.ndarray, np.ndarray, np.float64] | None = None
        self._minimize_calls = 0
        # (minimize call number, iteration) of each call that clamped.
        self._clamps: list[tuple[int, int]] = []

    def objective(self) -> ObjectiveOracle:
        """The negative log-likelihood over the flat parameter vector, or
        over each row of a stack of them."""
        return ObjectiveOracle(value=self._nll)

    def _log_densities(self, v: np.ndarray) -> np.ndarray:
        j = v.size // 3
        theta = GmmParams(weights=v[:j], means=v[j:2 * j], variances=v[2 * j:])
        return _weighted_log_densities(theta, self.data)

    def _facts(self, v: np.ndarray) -> list:
        """The log-density entry of the point with vector ``v``."""
        entry = next((entry for w, entry in self._points if w is v), None)
        if entry is None:
            entry = [self._log_densities(v), None]
            if self._anchor is None and not v.flags.writeable and v.base is None:
                self._points.append((v, entry))  # the start point, which the first anchor reads
        return entry

    def _lse(self, entry: list) -> np.ndarray:
        if entry[1] is None:
            entry[1] = _logsumexp(entry[0])
        return entry[1]

    def _nll(self, v: np.ndarray) -> float:
        if v.ndim == 2:
            return gmm_nll_rows(v, self.data)
        return float(-self._lse(self._facts(v)).sum())

    def _responsibilities(self, anchor: Point) -> tuple[np.ndarray, np.float64]:
        """Gamma at the anchor and sum gamma log gamma."""
        v = anchor.values
        if self._anchor is None or self._anchor[0] is not v:
            entry = self._facts(v)
            if entry[0] is None:  # an earlier anchor's, whose matrix went with its gamma
                entry[0] = self._log_densities(v)
            logd, lse = entry[0], self._lse(entry)
            entry[0] = None  # the matrix becomes gamma
            self._anchor = (v, *_gamma_in_place(logd, lse))
        return self._anchor[1], self._anchor[2]

    @staticmethod
    def _bound(gamma: np.ndarray, entropy, logp: np.ndarray, out: np.ndarray):
        # u at the candidate whose log-density matrix is ``logp``, or at each
        # candidate of an (S, J, T) stack; the cross terms go to ``out``.
        with np.errstate(invalid="ignore"):
            cross = np.multiply(gamma, logp, out=out)
        cross[~(gamma > 0)] = 0.0
        return -_flat_sum(cross) + entropy

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        y, z, _, _ = _with_part_rows(structure, part, xi_rows, anchor_rows)
        logd = _weighted_log_densities(_mixture_rows(y), self.data)
        gamma, entropy = _gamma_in_place(logd, _logsumexp(logd))
        logp = _weighted_log_densities(_mixture_rows(z), self.data)
        return self._bound(gamma, entropy, logp, out=logp)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        self._minimize_calls += 1
        blocks = anchor.structure.part_blocks(part)
        gamma, entropy = self._responsibilities(anchor)
        mass = gamma.sum(axis=1)
        if np.any(mass < _COLLAPSE_MASS):
            j = int(np.argmin(mass))
            raise ComponentCollapseError(
                f"component {j} holds responsibility mass {mass[j]:.3e}")
        # Only the pieces of this part.
        pieces = {}
        if 0 in blocks:
            pieces[0] = mass / self.data.size
        terms = np.empty_like(gamma)  # the summands, then the bound's cross terms
        if 1 in blocks:
            pieces[1] = np.multiply(gamma, self.data, out=terms).sum(axis=1) / mass
        if 2 in blocks:
            # Around the new means when the part holds them, else the anchor's.
            means = pieces[1] if 1 in blocks else anchor.part(1)
            np.subtract(self.data, means[:, None], out=terms)  # row j: w_t - mu_j
            terms *= terms
            variances = np.multiply(gamma, terms, out=terms).sum(axis=1) / mass
            if np.any(variances < self.s_floor):
                self._clamps.append((self._minimize_calls, iteration))
                variances = np.maximum(variances, self.s_floor)
            pieces[2] = variances
        z = anchor.with_part(part, np.concatenate([pieces[i] for i in blocks]))
        # The previous anchor's logsumexp goes only now, just before the new
        # matrix: freed at the anchor change, it costs more page faults.
        self._points = [p for p in self._points if p[0] is anchor.values]
        entry = [self._log_densities(z.values), None]
        self._points.append((z.values, entry))
        return z, float(self._bound(gamma, entropy, entry[0], out=terms))


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
    data = np.asarray(data, dtype=np.float64)
    n_components = _index(n_components, "n_components", least=1)
    if data.ndim != 1:
        raise InvalidArgumentError(f"data must be a 1-d sample, got shape {data.shape}")
    if data.size < 2:
        raise InvalidArgumentError("need at least two observations")
    if not np.isfinite(data).all():
        raise InvalidArgumentError("data must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.var(data))
    if not np.isfinite(var):
        raise InvalidArgumentError("data variance overflows")
    if mode not in EM_MODES:
        raise InvalidArgumentError(f"mode must be 'full' or 'block', got {mode!r}")
    if s_floor is None:
        s_floor = 1e-6 * var
        if s_floor <= 0:
            s_floor = 1e-12
    theta0 = theta0 if theta0 is not None else _default_start(data, n_components)
    if theta0.n_components != n_components:
        raise InvalidArgumentError("theta0 has the wrong component count")
    surrogate = GmmJensenSurrogate(data, s_floor)
    x0 = theta0.to_point()
    driver = run_sum if mode == "full" else run_bsum
    x, trace = driver(surrogate.objective(), surrogate, x0, opts)
    # The drivers call minimize once per iteration; later calls are the
    # post-run stationarity check, not iterations.
    for call, it in surrogate._clamps:
        if call <= trace.n_iterations:
            trace.warnings.append(f"variance clamped at floor {s_floor:.3e} in iteration {it}")
    return GmmParams.from_point(x), trace
