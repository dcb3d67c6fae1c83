"""Small closed-form problems for tests, demos, and the CLI toy runner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import app_classic
from .core import (
    BlockIndex,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    Trace,
    _real,
    make_block_structure,
)
from .engine import SolveOptions, run_bsca
from .surrogates import (
    DcLinearization,
    ExactBlockSurrogate,
    LipschitzQuadraticSurrogate,
    ProximalSurrogate,
    QuadraticApprox,
    soft_threshold,
)

__all__ = [
    "QuadraticProblem",
    "separable_quartic_dc",
    "lasso_problem",
    "TOY_SOLVERS",
    "toy_trace",
]

TOY_SOLVERS = ("prox", "alternating_prox", "splitting", "cccp", "bsca")


@dataclass(frozen=True)
class QuadraticProblem:
    """f(x) = 0.5 x'Qx - b'x with Q symmetric positive definite."""

    Q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or b.shape != (Q.shape[0],):
            raise InvalidArgumentError("Q must be square and b must match it")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise InvalidArgumentError("Q must be symmetric")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    def objective(self) -> ObjectiveOracle:
        # Both take one point or a stack of points, one per row; the
        # (1, n) @ Q and Q @ (n, 1) products give each row the bits of
        # x @ Q @ x and Q @ x for that row alone.
        Q, b = self.Q, self.b
        return ObjectiveOracle(
            value=lambda x: 0.5 * np.vecdot((x[..., None, :] @ Q)[..., 0, :], x) - np.vecdot(x, b),
            gradient=lambda x: np.matmul(Q, x[..., None])[..., 0] - b)

    def block_minimize(self, part: BlockIndex, anchor: Point) -> np.ndarray:
        # Exact part minimizer with the rest frozen: Q_pp x_p = b_p - Q_pr y_r.
        idx = np.arange(anchor.dim)[anchor.structure.locate(part)[1]]
        rest = np.setdiff1d(np.arange(anchor.dim), idx)
        rhs = self.b[idx] - self.Q[np.ix_(idx, rest)] @ anchor.values[rest]
        return np.linalg.solve(self.Q[np.ix_(idx, idx)], rhs)

    def prox_block_minimize(self, part: BlockIndex, anchor: Point, c: float) -> np.ndarray:
        idx = np.arange(anchor.dim)[anchor.structure.locate(part)[1]]
        rest = np.setdiff1d(np.arange(anchor.dim), idx)
        rhs = (self.b[idx] - self.Q[np.ix_(idx, rest)] @ anchor.values[rest]
               + anchor.values[idx] / c)
        lhs = self.Q[np.ix_(idx, idx)] + np.eye(idx.size) / c
        return np.linalg.solve(lhs, rhs)

    def exact_surrogate(self) -> ExactBlockSurrogate:
        return ExactBlockSurrogate(self.objective(), self.block_minimize)

    def proximal_surrogate(self, c=1.0) -> ProximalSurrogate:
        return ProximalSurrogate(self.objective(), self.prox_block_minimize, c=c)


def separable_quartic_dc(dims=(1,)) -> tuple[ObjectiveOracle, DcLinearization, Point]:
    """f(x) = sum x^4/4 - x^2/2, split as convex quartic plus concave quadratic.

    The linearized subproblem solves componentwise x^3 = -a, so each
    whole-variable step is a cube root of the anchor. Returns the objective,
    the linearization surrogate, and a zero starting point.
    """
    structure = make_block_structure(dims)

    # Each of these takes one point or a stack of points, one per row.
    def cvx_value(x):
        return (x ** 4).sum(axis=-1) / 4.0

    def cve_value(x):
        return -(x ** 2).sum(axis=-1) / 2.0

    def f_grad(x):
        return x ** 3 - x

    dc = DcLinearization(cvx_value=cvx_value, cve_value=cve_value, cve_grad=np.negative,
                         minimize_linear=lambda part, a, anchor: np.cbrt(-a))
    objective = ObjectiveOracle(value=dc.objective().value, gradient=f_grad)
    return objective, dc, Point(np.zeros(structure.total), structure)


def lasso_problem(target, weight: float = 1.0, gamma: float = 1.0,
                  dims=None) -> tuple[ObjectiveOracle, LipschitzQuadraticSurrogate, Point]:
    """f(x) = weight * |x|_1 + 0.5 |x - target|^2 (smooth gradient modulus 1).

    Returns the objective, the proximal-gradient surrogate with the given
    step gamma, and a zero starting point.
    """
    target = np.asarray(target, dtype=np.float64).ravel()
    weight = _real(weight, "weight", "nonnegative")
    structure = make_block_structure(dims if dims is not None else [target.size])
    if structure.total != target.size:
        raise InvalidArgumentError("dims must cover the target vector")

    # Each of these takes one point or a stack of points, one per row.
    def smooth_value(x):
        return 0.5 * ((x - target) ** 2).sum(axis=-1)

    def smooth_grad(x):
        return x - target

    def l1(x):
        return weight * np.abs(x).sum(axis=-1)

    surrogate = LipschitzQuadraticSurrogate(
        smooth=ObjectiveOracle(value=smooth_value, gradient=smooth_grad),
        nonsmooth_total=l1,
        prox=lambda part, v, g: soft_threshold(v, weight * g),
        beta=1.0,
        gamma=gamma,
    )
    return surrogate.objective(), surrogate, Point(np.zeros(structure.total), structure)


def toy_trace(solver: str, opts: SolveOptions) -> Trace:
    """The trace of one of the ``TOY_SOLVERS`` on its fixed small problem,
    whose objective takes one point or a stack of points, one per row.
    Coordinates are read as one-column slices, so one point takes the array
    loops that each row of a stack takes and gets that row's bits."""
    if solver == "prox":
        f = ObjectiveOracle(value=lambda x: np.vecdot(x, x), gradient=lambda x: 2.0 * x)
        x0 = Point(np.array([2.0]), make_block_structure([1]))
        _, trace = app_classic.proximal_point_solve(
            f, lambda part, y, c: y.part(part) / (2.0 * c + 1.0), x0, c=1.0, opts=opts)
        return trace
    if solver == "alternating_prox":
        # f = (x1 + x2 - 1)^2; block prox update is linear, closed form.
        f = ObjectiveOracle(value=lambda x: ((x[..., 0:1] + x[..., 1:2] - 1.0) ** 2)[..., 0])

        def prox(part, y, c):
            i = part if isinstance(part, int) else part[0]
            other = y.values[1 - i]
            return np.array([(2.0 * c * (1.0 - other) + y.values[i]) / (2.0 * c + 1.0)])

        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        _, trace = app_classic.alternating_proximal_solve(f, prox, x0, c=1.0, opts=opts)
        return trace
    if solver == "splitting":
        _, surrogate, x0 = lasso_problem(target=[2.0], weight=1.0, gamma=1.0)
        _, trace = app_classic.forward_backward_solve(
            surrogate.nonsmooth_total, surrogate.prox, surrogate.smooth,
            beta=1.0, gamma=1.0, x0=x0, opts=opts)
        return trace
    if solver == "cccp":
        _, dc, x0 = separable_quartic_dc([1])
        x0 = x0.with_values(np.array([8.0]))
        _, trace = app_classic.cccp_solve(dc, x0, opts=opts)
        return trace
    if solver == "bsca":
        def value(x):
            a, b = x[..., 0:1], x[..., 1:2]
            return ((a - 1.0) ** 4 + (b + 2.0) ** 2 + a * b / 10.0)[..., 0]

        def gradient(x):
            a, b = x[..., 0:1], x[..., 1:2]
            return np.concatenate([4.0 * (a - 1.0) ** 3 + b / 10.0, 2.0 * (b + 2.0) + a / 10.0],
                                  axis=-1)

        f = ObjectiveOracle(value=value, gradient=gradient)
        x0 = Point(np.zeros(2), make_block_structure([1, 1]))
        _, trace = run_bsca(f, QuadraticApprox(f, t=0.25), x0, opts)
        return trace
    raise InvalidArgumentError(f"unknown toy solver {solver!r}")
