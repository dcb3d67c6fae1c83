"""Iteration drivers.

Four related schemes, all minimizing f by repeatedly minimizing a
block surrogate u built around the current iterate:

* ``run_sum``   - whole-variable: ``run_bsum`` over one group of all blocks.
* ``run_bsum``  - block-cyclic, or essentially cyclic over groups of blocks.
* ``run_misum`` - greedy: every block subproblem is solved, the block whose
  surrogate minimum is lowest is the one updated.
* ``run_bsca``  - the surrogate only approximates f, so the block step is a
  direction and an Armijo backtracking search picks the step size.

A surrogate oracle exposes ``value(part, xi, anchor, iteration)`` and
``minimize(part, anchor, iteration) -> (argmin, min value)`` where ``part``
is an int block index or a tuple of indices, and the anchor is the current
``Point``. For the upper-bound drivers the surrogate must touch f at the
anchor and dominate it elsewhere; those properties are not assumed silently,
``bsumkit.verify`` checks them by sampling.

``run_bsum`` and ``run_bsca`` take a ``schedule=Schedule`` of block groups
(default ``Schedule.cyclic``); ``run_misum`` picks its block and takes none.

Every driver, ``app_wmmse.run_wmmse`` included, is a step run by one loop,
``_iterate``: it records and times the steps and stops as converged on the
step's own stop rule or once f drops below ``target_objective``. Stop rules:
``run_sum``/``run_bsum``/``run_misum`` stop when the decrease, or the promised
decrease ``f(anchor) - min u``, stays within ``tol * (1 + |f|)`` for one
schedule period (1 for ``run_sum``, the block count for ``run_misum``);
``run_bsca`` when every block's model step has norm at most ``tol``;
``run_wmmse`` when the decrease stays within that bound for two half-steps.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .core import (
    BlockIndex,
    DescentDirectionError,
    FeasibleSetOracle,
    InvalidArgumentError,
    InvalidScheduleError,
    LineSearchError,
    ObjectiveOracle,
    Point,
    SolverError,
    Trace,
    TraceRecord,
)

__all__ = [
    "BlockSurrogateOracle",
    "Schedule",
    "schedule_next",
    "ArmijoParams",
    "armijo_step",
    "SolveOptions",
    "run_sum",
    "run_bsum",
    "run_misum",
    "run_bsca",
]


class BlockSurrogateOracle(Protocol):
    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float: ...

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]: ...


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
        if self.n_blocks < 1:
            raise InvalidScheduleError("need at least one block")
        if not self.groups:
            raise InvalidScheduleError("need at least one group")
        if self.period < 1:
            raise InvalidScheduleError("period must be >= 1")
        visits: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for k, g in enumerate(self.groups):
            if not g:
                raise InvalidScheduleError("empty group")
            if len(set(g)) != len(g):
                raise InvalidScheduleError(f"group {g} repeats a block")
            for i in g:
                if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n_blocks:
                    raise InvalidScheduleError(f"group {g} holds a non-integer or unknown block")
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
        return Schedule.essentially_cyclic(n_blocks, [[i] for i in range(n_blocks)])

    @staticmethod
    def essentially_cyclic(n_blocks: int, groups: Sequence[Sequence[int]],
                           period: int | None = None) -> "Schedule":
        try:
            groups_t = tuple(tuple(sorted(set(operator.index(i) for i in g))) for g in groups)
            period = len(groups_t) if period is None else operator.index(period)
        except TypeError as exc:
            raise InvalidScheduleError(f"blocks and period must be integers: {exc}") from exc
        return Schedule(n_blocks=n_blocks, groups=groups_t, period=period)


def schedule_next(schedule: Schedule, iteration: int) -> BlockIndex:
    """Part to update at a 1-based iteration index (an int for a one-block group)."""
    if iteration < 1:
        raise InvalidArgumentError("iteration index starts at 1")
    g = schedule.groups[(iteration - 1) % len(schedule.groups)]
    return g[0] if len(g) == 1 else g


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking parameters: try alpha_init * beta^j, j = 0..max_backtracks."""

    alpha_init: float = 1.0
    beta: float = 0.5
    sigma: float = 0.01
    max_backtracks: int = 60

    def __post_init__(self):
        if self.alpha_init <= 0:
            raise InvalidArgumentError("alpha_init must be positive")
        if not 0 < self.beta < 1:
            raise InvalidArgumentError("beta must lie in (0, 1)")
        if not 0 < self.sigma < 1:
            raise InvalidArgumentError("sigma must lie in (0, 1)")
        if self.max_backtracks < 0:
            raise InvalidArgumentError("max_backtracks must be nonnegative")


def armijo_step(f: ObjectiveOracle, x: Point, d: np.ndarray, fprime: float, fx: float,
                params: ArmijoParams = ArmijoParams()) -> tuple[float, Point, float]:
    """Largest step alpha_init * beta^j whose decrease beats sigma * alpha * |f'|.

    Accepts alpha when f(x) - f(x + alpha d) >= -sigma * alpha * fprime,
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
    alpha = params.alpha_init
    for _ in range(params.max_backtracks + 1):
        trial = x.values + alpha * d
        f_trial = f.value_at(trial)
        if fx - f_trial >= -params.sigma * alpha * fprime:
            return alpha, x.with_values(trial), f_trial
        alpha *= params.beta
    raise LineSearchError(
        f"no acceptable step after {params.max_backtracks} backtracks")


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 1000
    tol: float = 1e-8
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    record_timings: bool = False
    target_objective: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be >= 1")
        if not self.tol > 0:
            raise InvalidArgumentError("tol must be positive")


def _check_feasible_start(x0: Point, feasible: Sequence[FeasibleSetOracle] | None) -> None:
    if feasible is None:
        return
    if len(feasible) != x0.structure.n_blocks:
        raise InvalidArgumentError("one feasible set per block is required")
    for i, fs in enumerate(feasible):
        if not fs.contains(x0.block(i)):
            raise InvalidArgumentError(f"starting point infeasible in block {i}")


def _wrap_oracle_failure(exc: Exception, iteration: int) -> SolverError:
    if isinstance(exc, SolverError):
        if exc.iteration is None:
            exc.iteration = iteration
        return exc
    return SolverError(f"surrogate minimization failed: {exc}", iteration=iteration)


def _stationarity_gap(f: ObjectiveOracle, u: BlockSurrogateOracle, x: Point,
                      trace: Trace) -> None:
    # max over blocks of f(x) - min_xi u(xi, x); zero at a coordinatewise
    # surrogate-stationary point. Any failure leaves the gap None with the
    # reason in the warnings: the run itself has finished.
    try:
        fx = f.value_at(x.values)
        gaps = []
        for i in range(x.structure.n_blocks):
            _, umin = u.minimize(i, x, trace.n_iterations)
            gaps.append(fx - float(umin))
        trace.stationarity_gap = float(max(gaps))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        trace.warnings.append(f"stationarity gap not computed: {exc}")


def _iterate(x, fx: float, opts: SolveOptions, step) -> tuple[object, Trace]:
    """The driver loop: ``step(r, x, fx) -> (x, f, part, step_size, extras,
    stop)`` does iteration r; the loop records and times it and stops as
    converged on ``stop`` or once f drops below ``opts.target_objective``."""
    trace = Trace(initial_objective=fx)
    for r in range(1, opts.max_iters + 1):
        t0 = time.perf_counter_ns() if opts.record_timings else 0
        x, fx, part, step_size, extras, stop = step(r, x, fx)
        elapsed = time.perf_counter_ns() - t0 if opts.record_timings else 0
        trace.append(TraceRecord(iteration=r, block=part, objective=fx,
                                 step_size=step_size, elapsed_ns=elapsed, extras=extras))
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

    def __call__(self, f_old: float, f_new: float, umin: float | None = None) -> bool:
        bound = self.tol * (1.0 + abs(f_new))
        self.small_steps = self.small_steps + 1 if abs(f_old - f_new) <= bound else 0
        if umin is not None:
            self.small_gaps = self.small_gaps + 1 if abs(f_old - umin) <= bound else 0
        return self.small_steps >= self.period or self.small_gaps >= self.period


def _upper_bound_loop(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
                      opts: SolveOptions, choose, period: int) -> tuple[Point, Trace]:
    # ``choose(r, x) -> (part, argmin, min u, extras)`` solves the
    # subproblem(s) of iteration r and picks the part to move.
    stall = _Stall(opts.tol, period)

    def step(r: int, x: Point, fx: float):
        try:
            part, xi, umin, extras = choose(r, x)
        except Exception as exc:  # noqa: BLE001 - rewrapped with the iteration index
            raise _wrap_oracle_failure(exc, r) from exc
        x_new = x.with_part(part, xi)
        f_new = f.value_at(x_new.values)
        return x_new, f_new, part, None, extras, stall(fx, f_new, umin)

    x, trace = _iterate(x0, f.value_at(x0.values), opts, step)
    _stationarity_gap(f, u, x, trace)
    return x, trace


def _cyclic_schedule(x0: Point, feasible: Sequence[FeasibleSetOracle] | None,
                     schedule: Schedule | None) -> Schedule:
    _check_feasible_start(x0, feasible)
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
             feasible: Sequence[FeasibleSetOracle] | None = None,
             schedule: Schedule | None = None) -> tuple[Point, Trace]:
    """Block-coordinate surrogate minimization; the schedule defaults to cyclic."""
    schedule = _cyclic_schedule(x0, feasible, schedule)

    def choose(r: int, x: Point):
        part = schedule_next(schedule, r)
        xi, umin = u.minimize(part, x, r)
        return part, xi, float(umin), {}

    return _upper_bound_loop(f, u, x0, opts, choose, schedule.period)


def run_misum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
              opts: SolveOptions = SolveOptions(),
              feasible: Sequence[FeasibleSetOracle] | None = None) -> tuple[Point, Trace]:
    """Maximum-improvement variant: update the block promising the lowest minimum."""
    _check_feasible_start(x0, feasible)

    def choose(r: int, x: Point):
        # Solve every block subproblem; update the block whose surrogate
        # minimum is lowest (ties: lowest index).
        results = [u.minimize(i, x, r) for i in range(x.structure.n_blocks)]
        minima = np.array([float(v) for _, v in results])
        k = int(np.argmin(minima))
        return k, results[k][0], float(minima[k]), {
            "block_minima": tuple(float(v) for v in minima)}

    return _upper_bound_loop(f, u, x0, opts, choose, x0.structure.n_blocks)


def run_bsca(f: ObjectiveOracle, h: BlockSurrogateOracle, x0: Point,
             opts: SolveOptions = SolveOptions(),
             feasible: Sequence[FeasibleSetOracle] | None = None,
             schedule: Schedule | None = None) -> tuple[Point, Trace]:
    """Convex-approximation descent with Armijo backtracking.

    Each iteration minimizes the convex model h over the scheduled part
    (the schedule defaults to cyclic), takes d = argmin - current part as a
    direction, and line-searches f along it. h need not upper-bound f; f
    must expose a gradient.
    """
    if f.gradient is None:
        raise InvalidArgumentError("run_bsca requires an objective gradient")
    schedule = _cyclic_schedule(x0, feasible, schedule)

    def part_direction(part: BlockIndex, x: Point, r: int) -> np.ndarray:
        xi, _ = h.minimize(part, x, r)
        return np.asarray(xi, dtype=np.float64) - x.part(part)

    def step(r: int, x: Point, fx: float):
        part = schedule_next(schedule, r)
        try:
            d_part = part_direction(part, x, r)
            # Scheduled part already model-stationary: if every block is,
            # the run is done (sound to check now, x has not moved).
            stalled = float(np.linalg.norm(d_part)) <= opts.tol
            all_small = stalled and all(
                float(np.linalg.norm(part_direction(i, x, r))) <= opts.tol
                for i in range(x.structure.n_blocks))
        except Exception as exc:  # noqa: BLE001
            raise _wrap_oracle_failure(exc, r) from exc
        if stalled:
            return x, fx, part, None, {}, all_small
        g = f.gradient_at(x.values)
        idx = x.structure.part_indices(part)
        fprime = float(g[idx] @ d_part)
        if fprime > 0:
            raise DescentDirectionError(
                f"iteration {r}: model step is not a descent direction (f' = {fprime})")
        d_full = np.zeros(x.dim)
        d_full[idx] = d_part
        try:
            alpha, x_new, f_new = armijo_step(f, x, d_full, fprime, fx, opts.armijo)
        except LineSearchError as exc:
            raise SolverError(str(exc), iteration=r) from exc
        return x_new, f_new, part, alpha, {"directional_derivative": fprime}, False

    return _iterate(x0, f.value_at(x0.values), opts, step)
