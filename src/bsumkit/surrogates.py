"""Upper-bound and approximation surrogates used by the drivers.

Every class here follows the ``BlockSurrogateOracle`` shape: ``value(part,
xi, anchor, iteration)`` evaluates the surrogate for the given part at
``xi`` with the rest of the variable frozen at the anchor, and
``minimize(part, anchor, iteration)`` returns the part argmin together with
the attained surrogate value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlockIndex,
    FeasibleSetOracle,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
)

__all__ = [
    "ExactBlockSurrogate",
    "ProximalSurrogate",
    "ConvexPartOracle",
    "DcLinearization",
    "LipschitzQuadraticSurrogate",
    "QuadraticApprox",
    "soft_threshold",
]


@dataclass(frozen=True)
class ExactBlockSurrogate:
    """The objective itself, restricted to a part; needs an exact part solver.

    ``solver(part, anchor)`` must return the minimizer of f over that part
    with the remaining coordinates frozen at the anchor.
    """

    f: ObjectiveOracle
    solver: Callable[[BlockIndex, Point], np.ndarray]

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        return self.f.value_at(anchor.with_part(part, xi).values)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        xi = np.asarray(self.solver(part, anchor), dtype=np.float64)
        return xi, self.value(part, xi, anchor, iteration)


def _coefficient(c, iteration: int, anchor: Point) -> float:
    value = float(c(iteration, anchor)) if callable(c) else float(c)
    if not value > 0:
        raise InvalidArgumentError(f"proximal coefficient must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ProximalSurrogate:
    """f plus a proximal penalty: u(xi, y) = f(y with xi) + |xi - y_i|^2 / (2 c).

    ``c`` is a positive constant or a callable ``(iteration, anchor) -> c_r``
    for iteration-dependent coefficients. ``inner_solver(part, anchor, c)``
    must return the exact minimizer of the penalized part subproblem.
    """

    f: ObjectiveOracle
    inner_solver: Callable[[BlockIndex, Point, float], np.ndarray]
    c: float | Callable[[int, Point], float] = 1.0

    def coefficient(self, iteration: int, anchor: Point) -> float:
        return _coefficient(self.c, iteration, anchor)

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        c = self.coefficient(iteration, anchor)
        xi = np.asarray(xi, dtype=np.float64)
        base = self.f.value_at(anchor.with_part(part, xi).values)
        diff = xi - anchor.part(part)
        return base + float(diff @ diff) / (2.0 * c)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        c = self.coefficient(iteration, anchor)
        xi = np.asarray(self.inner_solver(part, anchor, c), dtype=np.float64)
        return xi, self.value(part, xi, anchor, iteration)


@dataclass(frozen=True)
class ConvexPartOracle:
    """Convex component of a difference-of-convex objective.

    ``minimize_linear(a)`` returns argmin_x f_cvx(x) + a @ x over the whole
    variable and may raise SolverError when that problem is unbounded.
    """

    value: Callable[[np.ndarray], float]
    minimize_linear: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DcLinearization:
    """Linearize the concave part of f = f_cvx + f_cve around the anchor.

    u(x, y) = f_cvx(x) + (x - y) @ grad f_cve(y) + f_cve(y), a global upper
    bound since f_cve lies below its tangents. Minimizing it reproduces the
    concave-convex fixed-point update grad f_cvx(x+) = -grad f_cve(y).
    Block steps need ``block_minimize_linear(part, a_part, anchor)``.
    """

    f_cvx: ConvexPartOracle
    cve_value: Callable[[np.ndarray], float]
    cve_grad: Callable[[np.ndarray], np.ndarray]
    block_minimize_linear: Callable[[BlockIndex, np.ndarray, Point], np.ndarray] | None = None

    def objective(self) -> ObjectiveOracle:
        return ObjectiveOracle(
            value=lambda v: float(self.f_cvx.value(v)) + float(self.cve_value(v)))

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        xi = np.asarray(xi, dtype=np.float64)
        z = anchor.with_part(part, xi)
        g = np.asarray(self.cve_grad(anchor.values), dtype=np.float64)
        idx = anchor.structure.part_indices(part)
        lin = float(g[idx] @ (xi - anchor.part(part)))
        return float(self.f_cvx.value(z.values)) + lin + float(self.cve_value(anchor.values))

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        part_n = anchor.structure.normalize_part(part)
        g = np.asarray(self.cve_grad(anchor.values), dtype=np.float64)
        whole = anchor.structure.part_dim(part_n) == anchor.structure.total
        if whole:
            xi = np.asarray(self.f_cvx.minimize_linear(g), dtype=np.float64)
            # minimize_linear works on the whole vector; reorder to part order.
            xi = xi[anchor.structure.part_indices(part_n)]
        else:
            if self.block_minimize_linear is None:
                raise InvalidArgumentError(
                    "block steps need a block_minimize_linear solver")
            idx = anchor.structure.part_indices(part_n)
            xi = np.asarray(self.block_minimize_linear(part_n, g[idx], anchor),
                            dtype=np.float64)
        return xi, self.value(part_n, xi, anchor, iteration)


@dataclass(frozen=True)
class LipschitzQuadraticSurrogate:
    """Quadratic bound for f = sum_i f1_i(x_i) + f2(x) with Lipschitz grad f2.

    u(xi, y) = f1_i(xi) + (xi - y_i) @ grad_i f2(y) + |xi - y_i|^2 / (2 gamma)
    plus the frozen terms; its part minimizer is the proximal-gradient step
    prox_{gamma f1_i}(y_i - gamma grad_i f2(y)). The bound property needs
    gamma <= 1/beta; construction accepts the larger stable range
    [eps, 2/beta - eps] used by the convergence theory.

    ``nonsmooth_total`` evaluates sum_i f1_i at a full vector, ``prox(part,
    v, gamma)`` solves argmin f1_part(x) + |x - v|^2 / (2 gamma).
    """

    smooth: ObjectiveOracle
    nonsmooth_total: Callable[[np.ndarray], float]
    prox: Callable[[BlockIndex, np.ndarray, float], np.ndarray]
    beta: float
    gamma: float
    eps: float = 1e-6

    def __post_init__(self):
        if self.smooth.gradient is None:
            raise InvalidArgumentError("smooth part needs a gradient")
        if not self.beta > 0:
            raise InvalidArgumentError("beta must be positive")
        if not 0 < self.eps < 1.0 / self.beta:
            raise InvalidArgumentError("eps must lie in (0, 1/beta)")
        lo, hi = self.eps, 2.0 / self.beta - self.eps
        if not lo <= self.gamma <= hi:
            raise InvalidArgumentError(
                f"gamma must lie in [{lo}, {hi}] for beta={self.beta}, got {self.gamma}")

    def objective(self) -> ObjectiveOracle:
        return ObjectiveOracle(
            value=lambda v: float(self.nonsmooth_total(v)) + self.smooth.value_at(v))

    def _quadratic(self, part: BlockIndex, xi: np.ndarray, anchor: Point) -> float:
        g = self.smooth.gradient_at(anchor.values)
        idx = anchor.structure.part_indices(part)
        diff = xi - anchor.part(part)
        return (float(g[idx] @ diff) + float(diff @ diff) / (2.0 * self.gamma)
                + self.smooth.value_at(anchor.values))

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        xi = np.asarray(xi, dtype=np.float64)
        z = anchor.with_part(part, xi)
        return float(self.nonsmooth_total(z.values)) + self._quadratic(part, xi, anchor)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        g = self.smooth.gradient_at(anchor.values)
        idx = anchor.structure.part_indices(part)
        v = anchor.part(part) - self.gamma * g[idx]
        xi = np.asarray(self.prox(part, v, self.gamma), dtype=np.float64)
        return xi, self.value(part, xi, anchor, iteration)

    def smooth_part(self) -> tuple["_SmoothQuadraticPart", ObjectiveOracle]:
        """The (u0, f0) pair whose tightness and bound imply the full properties."""
        return _SmoothQuadraticPart(self), self.smooth


@dataclass(frozen=True)
class _SmoothQuadraticPart:
    parent: LipschitzQuadraticSurrogate

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        return self.parent._quadratic(part, np.asarray(xi, dtype=np.float64), anchor)


@dataclass(frozen=True)
class QuadraticApprox:
    """Isotropic quadratic model around the anchor, for the line-search driver.

    h(xi, y) = f(y) + grad_i f(y) @ (xi - y_i) + |xi - y_i|^2 / (2 t); its
    minimizer is the (projected) gradient step y_i - t grad_i f(y). Strictly
    convex for t > 0, tight and gradient-matched at the anchor, but not an
    upper bound in general.
    """

    f: ObjectiveOracle
    t: float
    feasible: Sequence[FeasibleSetOracle] | None = None

    def __post_init__(self):
        if self.f.gradient is None:
            raise InvalidArgumentError("quadratic model needs an objective gradient")
        if not self.t > 0:
            raise InvalidArgumentError("curvature parameter t must be positive")

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        return self._model(part, np.asarray(xi, dtype=np.float64), anchor,
                           self.f.gradient_at(anchor.values))

    def _model(self, part: BlockIndex, xi: np.ndarray, anchor: Point, g: np.ndarray) -> float:
        idx = anchor.structure.part_indices(part)
        diff = xi - anchor.part(part)
        return (self.f.value_at(anchor.values) + float(g[idx] @ diff)
                + float(diff @ diff) / (2.0 * self.t))

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        g = self.f.gradient_at(anchor.values)
        structure = anchor.structure
        blocks = structure.part_blocks(part)
        pieces = []
        for i in blocks:
            sl = structure.block_slice(i)
            v = anchor.values[sl] - self.t * g[sl]
            if self.feasible is not None:
                v = self.feasible[i].project(v)
            pieces.append(v)
        xi = np.concatenate(pieces)
        return xi, self._model(part, xi, anchor, g)


def soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal map of threshold * |.|_1 (componentwise shrinkage)."""
    if threshold < 0:
        raise InvalidArgumentError("threshold must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)

