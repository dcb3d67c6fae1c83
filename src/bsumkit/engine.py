"""Iteration drivers.

Four related schemes, all minimizing f by repeatedly minimizing a
block surrogate u built around the current iterate:

* ``run_sum``   - whole-variable: ``run_bsum`` over one group of all blocks.
* ``run_bsum``  - block-cyclic, or essentially cyclic over groups of blocks.
* ``run_misum`` - greedy: every block subproblem is solved, the block whose
  surrogate minimum is lowest is the one updated.
* ``run_bsca``  - the surrogate only approximates f, so the block step is a
  direction and an Armijo backtracking search picks the step size (fixed:
  alpha = 1, 1/2, ..., at most 60 halvings, sufficient decrease 0.01).

A surrogate oracle exposes ``minimize(part, anchor, iteration) -> (point,
min value)``, which the drivers call, where ``part`` is an int block index
or a tuple of indices, the anchor is the current ``Point``, and ``point`` is
the anchor with the part moved to the argmin: the next iterate, so a
surrogate can keep facts about it for the next anchor. It also exposes
``values(part, xi_rows, anchor_rows, structure, iteration)``, u on stacks of
rows, which the checks call. For the upper-bound drivers the surrogate must
touch f at the anchor and dominate it elsewhere; those properties are not
assumed silently, ``bsumkit.verify`` checks them by sampling.

``run_bsum`` and ``run_bsca`` take a ``schedule=Schedule`` of block groups
(default ``Schedule.cyclic``); ``run_misum`` picks its block and takes none.

Every driver is a step run by one loop, ``_iterate``: it records the steps
and stops as converged on the step's own stop rule or once f drops below
``target_objective``. It is also the one place that ties a failure to its
iteration: an error raised in iteration r reads "iteration r: ...".
Feasibility is the surrogate's: each block step minimizes over the block's
feasible set, so no driver checks it. Stop rules: ``run_sum``/``run_bsum``/
``run_misum`` and ``app_wmmse.run_wmmse`` (on its transceiver state) stop when
the decrease, or the promised decrease ``f(anchor) - min u``, stays within
``tol * (1 + |f|)`` for one schedule period (1 for ``run_sum``, the block count
for ``run_misum``, two half-steps for ``run_wmmse``), then record the
stationarity gap; ``run_bsca`` when every model step has norm at most ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import (
    BlockIndex,
    BlockStructure,
    BsumError,
    DescentDirectionError,
    InvalidArgumentError,
    InvalidScheduleError,
    LineSearchError,
    ObjectiveOracle,
    Point,
    SolverError,
    Trace,
    TraceRecord,
    _index,
    _real,
)

__all__ = [
    "BlockSurrogateOracle",
    "Schedule",
    "schedule_next",
    "armijo_step",
    "SolveOptions",
    "run_sum",
    "run_bsum",
    "run_misum",
    "run_bsca",
]


class BlockSurrogateOracle(Protocol):
    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]: ...

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray: ...


@dataclass(frozen=True)
class Schedule:
    """Essentially cyclic block order (Tseng 2001).

    A fixed list of (possibly overlapping) groups visited round robin, such
    that every window of ``period`` consecutive groups, taken cyclically,
    covers all blocks. ``cyclic(n)`` is the case of one block per group.
    """

    n_blocks: int
    groups: tuple[tuple[int, ...], ...]
    period: int

    def __post_init__(self):
        for name in ("n_blocks", "period"):
            object.__setattr__(self, name, _index(getattr(self, name), name,
                                                  InvalidScheduleError, least=1))
        if not self.groups:
            raise InvalidScheduleError("need at least one group")
        visits: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for k, g in enumerate(self.groups):
            if not g:
                raise InvalidScheduleError("empty group")
            if len(set(g)) != len(g):
                raise InvalidScheduleError(f"group {g} repeats a block")
            for i in g:
                if not 0 <= _index(i, "a block", InvalidScheduleError) < self.n_blocks:
                    raise InvalidScheduleError(f"group {g} holds an unknown block")
                visits[i].append(k)
        # Every window covers block i iff no cyclic gap between successive
        # groups holding i exceeds the period.
        n_g = len(self.groups)
        for i, ks in enumerate(visits):
            if not ks:
                raise InvalidScheduleError(f"block {i} is in no group")
            gap = max(b - a for a, b in zip(ks, ks[1:] + [ks[0] + n_g]))
            if gap > self.period:
                raise InvalidScheduleError(
                    f"block {i} waits {gap} groups for an update, more than "
                    f"the period {self.period}")

    @staticmethod
    def cyclic(n_blocks: int) -> "Schedule":
        n_blocks = _index(n_blocks, "n_blocks", InvalidScheduleError)
        return Schedule.essentially_cyclic(n_blocks, [[i] for i in range(n_blocks)])

    @staticmethod
    def essentially_cyclic(n_blocks: int, groups: Sequence[Sequence[int]],
                           period: int | None = None) -> "Schedule":
        groups_t = tuple(tuple(sorted({_index(i, "a block", InvalidScheduleError) for i in g}))
                         for g in groups)
        return Schedule(n_blocks, groups_t, len(groups_t) if period is None else period)


def schedule_next(schedule: Schedule, iteration: int) -> BlockIndex:
    """Part to update at a 1-based iteration index (an int for a one-block group)."""
    if iteration < 1:
        raise InvalidArgumentError("iteration index starts at 1")
    g = schedule.groups[(iteration - 1) % len(schedule.groups)]
    return g[0] if len(g) == 1 else g


# Armijo backtracking: try alpha = 1, 1/2, 1/4, ..., at most 60 halvings.
_ALPHA0, _BETA, _SIGMA, _MAX_BACKTRACKS = 1.0, 0.5, 0.01, 60


def armijo_step(f: ObjectiveOracle, x: Point, d: np.ndarray, fprime: float,
                fx: float) -> tuple[float, Point, float]:
    """Largest step 0.5^j, j = 0..60, whose decrease beats 0.01 * alpha * |f'|.

    Accepts alpha when f(x) - f(x + alpha d) >= -0.01 * alpha * fprime,
    with fprime the directional derivative of f at x along d (must be <= 0)
    and ``fx`` the caller's f(x). Returns (alpha, x + alpha d, f there).
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != x.values.shape:
        raise InvalidArgumentError("direction shape does not match point")
    if not np.any(d):
        raise InvalidArgumentError("direction is identically zero")
    fprime = float(fprime)
    if fprime > 0:
        raise DescentDirectionError(f"directional derivative {fprime} is positive")
    alpha = _ALPHA0
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = x.values + alpha * d
        f_trial = f.value_at(trial)
        if fx - f_trial >= -_SIGMA * alpha * fprime:
            return alpha, x.with_values(trial), f_trial
        alpha *= _BETA
    raise LineSearchError(f"no acceptable step after {_MAX_BACKTRACKS} backtracks")


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 1000
    tol: float = 1e-8
    target_objective: float | None = None

    def __post_init__(self):
        _index(self.max_iters, "max_iters", least=1)
        _real(self.tol, "tol", "positive")
        if self.target_objective is not None:
            _real(self.target_objective, "target_objective")


def _stationarity_gap(u: BlockSurrogateOracle, x, n_blocks: int, trace: Trace) -> None:
    # max over the n_blocks blocks of f(x) - min_xi u(xi, x), with f(x) the
    # trace's last objective; zero at a coordinatewise surrogate-stationary
    # point. Any failure leaves the gap None with the reason in the warnings:
    # the run itself has finished.
    fx = trace.final_objective
    try:
        gaps = []
        for i in range(n_blocks):
            _, umin = u.minimize(i, x, trace.n_iterations)
            gaps.append(fx - float(umin))
        trace.stationarity_gap = float(max(gaps))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        trace.warnings.append(f"stationarity gap not computed: {exc}")


def _iterate(x, fx: float, opts: SolveOptions, step) -> tuple[object, Trace]:
    """The driver loop: ``step(r, x, fx) -> (x, f, part, step_size, extras,
    stop)`` does iteration r; the loop records it and stops as converged on
    ``stop`` or once f drops below ``opts.target_objective``. A package error
    raised in step r is tagged with r; any other becomes a SolverError at r."""
    trace = Trace(initial_objective=fx)
    for r in range(1, opts.max_iters + 1):
        try:
            x, fx, part, step_size, extras, stop = step(r, x, fx)
        except BsumError as exc:
            if exc.iteration is None:
                exc.iteration = r
            raise
        except Exception as exc:  # noqa: BLE001 - a foreign failure of the step
            err = SolverError(f"{type(exc).__name__}: {exc}")
            err.iteration = r
            raise err from exc
        trace.append(TraceRecord(iteration=r, block=part, objective=fx,
                                 step_size=step_size, extras=extras))
        if stop or (opts.target_objective is not None and fx < opts.target_objective):
            trace.terminal_status = "converged"
            break
    return x, trace


class _Stall:
    """Stop rule: the decrease f_old - f_new, or the promised decrease
    f_old - min u, stays within tol * (1 + |f_new|) for ``period`` calls
    in a row."""

    def __init__(self, tol: float, period: int):
        self.tol, self.period = tol, period
        self.small_steps = self.small_gaps = 0

    def __call__(self, f_old: float, f_new: float, umin: float) -> bool:
        bound = self.tol * (1.0 + abs(f_new))
        self.small_steps = self.small_steps + 1 if abs(f_old - f_new) <= bound else 0
        self.small_gaps = self.small_gaps + 1 if abs(f_old - umin) <= bound else 0
        return self.small_steps >= self.period or self.small_gaps >= self.period


def _upper_bound_loop(f, u: BlockSurrogateOracle, x0, opts: SolveOptions, choose,
                      schedule: Schedule) -> tuple[object, Trace]:
    # ``f(x)`` is the objective at iterate x. ``choose(r, x) -> (part, next iterate,
    # min u, extras)`` solves the subproblem(s) of iteration r and picks the part to move.
    stall = _Stall(opts.tol, schedule.period)

    def step(r: int, x, fx: float):
        part, x_new, umin, extras = choose(r, x)
        f_new = f(x_new)
        return x_new, f_new, part, None, extras, stall(fx, f_new, umin)

    x, trace = _iterate(x0, f(x0), opts, step)
    _stationarity_gap(u, x, schedule.n_blocks, trace)
    return x, trace


def _cyclic_schedule(x0: Point, schedule: Schedule | None) -> Schedule:
    schedule = schedule or Schedule.cyclic(x0.structure.n_blocks)
    if schedule.n_blocks != x0.structure.n_blocks:
        raise InvalidScheduleError("schedule block count does not match the point")
    return schedule


def run_sum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
            opts: SolveOptions = SolveOptions()) -> tuple[Point, Trace]:
    """Whole-variable surrogate minimization: x^(r+1) = argmin u(x, x^r)."""
    n = x0.structure.n_blocks
    return run_bsum(f, u, x0, opts,
                    schedule=Schedule.essentially_cyclic(n, [range(n)], period=1))


def run_bsum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
             opts: SolveOptions = SolveOptions(),
             schedule: Schedule | None = None) -> tuple[Point, Trace]:
    """Block-coordinate surrogate minimization; the schedule defaults to cyclic."""
    schedule = _cyclic_schedule(x0, schedule)

    def choose(r: int, x: Point):
        part = schedule_next(schedule, r)
        z, umin = u.minimize(part, x, r)
        return part, z, float(umin), {}

    return _upper_bound_loop(lambda x: f.value_at(x.values), u, x0, opts, choose, schedule)


def run_misum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
              opts: SolveOptions = SolveOptions()) -> tuple[Point, Trace]:
    """Maximum-improvement variant: update the block promising the lowest minimum."""

    def choose(r: int, x: Point):
        # Solve every block subproblem; update the block whose surrogate
        # minimum is lowest (ties: lowest index).
        results = [u.minimize(i, x, r) for i in range(x.structure.n_blocks)]
        minima = np.array([float(v) for _, v in results])
        k = int(np.argmin(minima))
        return k, results[k][0], float(minima[k]), {
            "block_minima": tuple(float(v) for v in minima)}

    return _upper_bound_loop(lambda x: f.value_at(x.values), u, x0, opts, choose,
                             Schedule.cyclic(x0.structure.n_blocks))


def run_bsca(f: ObjectiveOracle, h: BlockSurrogateOracle, x0: Point,
             opts: SolveOptions = SolveOptions(),
             schedule: Schedule | None = None) -> tuple[Point, Trace]:
    """Convex-approximation descent with Armijo backtracking.

    Each iteration minimizes the convex model h over the scheduled part
    (the schedule defaults to cyclic), takes d = argmin - current part as a
    direction, and line-searches f along it with ``armijo_step``'s fixed
    schedule (alpha = 1, 1/2, ..., 2^-60; sigma = 0.01). h need not
    upper-bound f; f must expose a gradient.
    A model with ``anchor_gradient(anchor)`` (grad f at the anchor, as the
    model used it) hands the directional derivative its gradient, so f's
    gradient is not evaluated twice per iteration.
    """
    if f.gradient is None:
        raise InvalidArgumentError("run_bsca requires an objective gradient")
    schedule = _cyclic_schedule(x0, schedule)
    anchor_gradient = getattr(h, "anchor_gradient", None)

    def part_direction(part: BlockIndex, x: Point, r: int) -> np.ndarray:
        z, _ = h.minimize(part, x, r)
        return z.part(part) - x.part(part)

    def step(r: int, x: Point, fx: float):
        part = schedule_next(schedule, r)
        d_part = part_direction(part, x, r)
        # Scheduled part already model-stationary: if every block is, the
        # run is done (sound to check now, x has not moved).
        if float(np.linalg.norm(d_part)) <= opts.tol:
            return x, fx, part, None, {}, all(
                float(np.linalg.norm(part_direction(i, x, r))) <= opts.tol
                for i in range(x.structure.n_blocks))
        g = anchor_gradient(x) if anchor_gradient is not None else f.gradient_at(x.values)
        where = x.structure.locate(part)[1]
        fprime = float(g[where] @ d_part)
        d_full = np.zeros(x.dim)
        d_full[where] = d_part
        alpha, x_new, f_new = armijo_step(f, x, d_full, fprime, fx)
        return x_new, f_new, part, alpha, {"directional_derivative": fprime}, False

    return _iterate(x0, f.value_at(x0.values), opts, step)
