"""Upper-bound and approximation surrogates used by the drivers.

Every class here follows the ``BlockSurrogateOracle`` shape:
``minimize(part, anchor, iteration)`` returns the anchor with the part
moved to the argmin, together with the attained surrogate value, and
``values(part, xi_rows, anchor_rows, structure, iteration)`` evaluates the
surrogate on stacks: row r is u at the anchor ``anchor_rows[r]`` with the
part set to ``xi_rows[r]``, from (S, dim) part rows and (S, n) anchor rows,
each row the bits of a one-row call. The checks in ``verify`` evaluate
through it. A callable field takes one point, from ``minimize``, or an
(S, n) stack of rows, from ``values``. ``minimize`` reads f and grad f as
facts of a point (``core._value_of``), each evaluated once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BlockIndex,
    BlockStructure,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    _gradient_of,
    _real,
    _value_of,
    _with_part_rows,
)

__all__ = [
    "ExactBlockSurrogate",
    "ProximalSurrogate",
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

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        return self.f.values_at(_with_part_rows(structure, part, xi_rows, anchor_rows)[1])

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        z = anchor.with_part(part, self.solver(part, anchor))
        return z, _value_of(self.f, z)


def _coefficient(c, iteration: int, anchor: Point) -> float:
    return _real(c(iteration, anchor) if callable(c) else c, "proximal coefficient", "positive")


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

    @staticmethod
    def _u(fz, diff, c):
        # u from f at the moved point, the part step xi - y_i and c.
        return fz + np.vecdot(diff, diff) / (2.0 * c)

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        y, z, _, diff = _with_part_rows(structure, part, xi_rows, anchor_rows)
        c = (np.array([self.coefficient(iteration, Point(v, structure)) for v in y])
             if callable(self.c) else self.coefficient(iteration, None))
        return self._u(self.f.values_at(z), diff, c)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        c = self.coefficient(iteration, anchor)
        z = anchor.with_part(part, self.inner_solver(part, anchor, c))
        return z, float(self._u(_value_of(self.f, z), z.part(part) - anchor.part(part), c))


@dataclass(frozen=True)
class DcLinearization:
    """Linearize the concave part of f = f_cvx + f_cve around the anchor.

    u(x, y) = f_cvx(x) + (x - y) @ grad f_cve(y) + f_cve(y), a global upper
    bound since f_cve lies below its tangents. Minimizing it reproduces the
    concave-convex fixed-point update grad f_cvx(x+) = -grad f_cve(y).
    ``minimize_linear(part, a_part, anchor)`` returns the part's argmin of
    f_cvx + a_part @ x_part with the other blocks frozen at the anchor (the
    whole variable is the part that holds every block); it may raise
    SolverError when that problem is unbounded.
    """

    cvx_value: Callable[[np.ndarray], float]
    cve_value: Callable[[np.ndarray], float]
    cve_grad: Callable[[np.ndarray], np.ndarray]
    minimize_linear: Callable[[BlockIndex, np.ndarray, Point], np.ndarray]

    def objective(self) -> ObjectiveOracle:
        return ObjectiveOracle(value=lambda v: self.cvx_value(v) + self.cve_value(v))

    def _grad(self, y: np.ndarray) -> np.ndarray:
        # grad f_cve at one anchor vector or at each row of a stack.
        return np.asarray(self.cve_grad(y), dtype=np.float64)

    def _u(self, z, g, diff, y):
        # u from the moved point z, the part g of grad f_cve(y), z_i - y_i and y.
        return self.cvx_value(z) + np.vecdot(g, diff) + self.cve_value(y)

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        y, z, where, diff = _with_part_rows(structure, part, xi_rows, anchor_rows)
        return self._u(z, self._grad(y)[:, where], diff, y)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        part, where, _ = anchor.structure.locate(part)
        y = anchor.values
        g = self._grad(y)[where]
        z = anchor.with_part(part, self.minimize_linear(part, g, anchor))
        return z, float(self._u(z.values, g, z.values[where] - y[where], y))


def _linear_model(fy, g, diff, t):
    # f(y) + g @ d + |d|^2 / (2 t), with g the part of grad f(y) and d the
    # part step, at one anchor or at each row of a stack.
    return fy + np.vecdot(g, diff) + np.vecdot(diff, diff) / (2.0 * t)


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
        beta, eps = _real(self.beta, "beta", "positive"), _real(self.eps, "eps")
        if not 0 < eps < 1.0 / beta:
            raise InvalidArgumentError("eps must lie in (0, 1/beta)")
        lo, hi = eps, 2.0 / beta - eps
        if not lo <= _real(self.gamma, "gamma") <= hi:
            raise InvalidArgumentError(
                f"gamma must lie in [{lo}, {hi}] for beta={self.beta}, got {self.gamma}")

    def objective(self) -> ObjectiveOracle:
        return ObjectiveOracle(value=lambda v: self.nonsmooth_total(v) + self.smooth.value(v))

    def _u(self, z, fy, g, diff):
        # u from the moved point z, f2(y), the part g of grad f2(y) and z_i - y_i.
        return self.nonsmooth_total(z) + _linear_model(fy, g, diff, self.gamma)

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        y, z, where, diff = _with_part_rows(structure, part, xi_rows, anchor_rows)
        return self._u(z, self.smooth.values_at(y), self.smooth.gradients_at(y)[:, where], diff)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        part, where, _ = anchor.structure.locate(part)
        y, g = anchor.values, _gradient_of(self.smooth, anchor)[where]
        z = anchor.with_part(part, self.prox(part, y[where] - self.gamma * g, self.gamma))
        return z, float(self._u(z.values, _value_of(self.smooth, anchor), g,
                                z.values[where] - y[where]))

    def smooth_part(self) -> tuple[QuadraticApprox, ObjectiveOracle]:
        """The (u0, f0) pair whose tightness and bound imply the full properties:
        u minus the nonsmooth term is the quadratic model of f2 with t = gamma."""
        return QuadraticApprox(self.smooth, self.gamma), self.smooth


@dataclass(frozen=True)
class QuadraticApprox:
    """Isotropic quadratic model around the anchor, for the line-search driver.

    h(xi, y) = f(y) + grad_i f(y) @ (xi - y_i) + |xi - y_i|^2 / (2 t); its
    minimizer is the gradient step y_i - t grad_i f(y). Strictly
    convex for t > 0, tight and gradient-matched at the anchor, but not an
    upper bound in general. f and grad f are read from the anchor's facts.
    """

    f: ObjectiveOracle
    t: float

    def __post_init__(self):
        if self.f.gradient is None:
            raise InvalidArgumentError("quadratic model needs an objective gradient")
        _real(self.t, "curvature parameter t", "positive")

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        y, _, where, diff = _with_part_rows(structure, part, xi_rows, anchor_rows)
        return _linear_model(self.f.values_at(y), self.f.gradients_at(y)[:, where], diff, self.t)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        part, where, _ = anchor.structure.locate(part)
        y, g = anchor.values, _gradient_of(self.f, anchor)[where]
        xi = y[where] - self.t * g
        return anchor.with_part(part, xi), float(
            _linear_model(_value_of(self.f, anchor), g, xi - y[where], self.t))


def soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal map of threshold * |.|_1 (componentwise shrinkage)."""
    threshold = _real(threshold, "threshold", "nonnegative")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)

