"""Iteration drivers.

Four related schemes, all minimizing f by repeatedly minimizing a
block surrogate u built around the current iterate:

* ``run_sum``   - whole-variable surrogate minimization.
* ``run_bsum``  - block-cyclic (or essentially cyclic with groups).
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

Convergence: relative objective decrease at most ``tol * (1 + |f|)``
sustained over one full schedule period, or surrogate improvement
``f(anchor) - min u`` below the same threshold for a full period, or
``target_objective`` reached. BSCA instead stops when every block direction
has norm at most ``tol``.
"""

from __future__ import annotations

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
    """Block visiting order.

    ``cyclic``: blocks 0..n-1 round robin. ``essentially_cyclic``: a fixed
    list of (possibly overlapping) groups visited round robin, where every
    window of ``period`` consecutive groups must cover all blocks.
    ``max_improvement``: the driver sees all blocks each iteration and picks
    the best one itself.
    """

    kind: str
    n_blocks: int
    groups: tuple[tuple[int, ...], ...] = ()
    period: int = 0

    @staticmethod
    def cyclic(n_blocks: int) -> "Schedule":
        if n_blocks < 1:
            raise InvalidScheduleError("need at least one block")
        return Schedule(kind="cyclic", n_blocks=n_blocks, period=n_blocks)

    @staticmethod
    def essentially_cyclic(n_blocks: int, groups: Sequence[Sequence[int]],
                           period: int | None = None) -> "Schedule":
        if n_blocks < 1:
            raise InvalidScheduleError("need at least one block")
        groups_t = tuple(tuple(sorted(set(int(i) for i in g))) for g in groups)
        if not groups_t:
            raise InvalidScheduleError("need at least one group")
        period = len(groups_t) if period is None else int(period)
        s = Schedule(kind="essentially_cyclic", n_blocks=n_blocks,
                     groups=groups_t, period=period)
        s.validate()
        return s

    @staticmethod
    def max_improvement(n_blocks: int) -> "Schedule":
        if n_blocks < 1:
            raise InvalidScheduleError("need at least one block")
        return Schedule(kind="max_improvement", n_blocks=n_blocks, period=n_blocks)

    def validate(self) -> None:
        if self.kind in ("cyclic", "max_improvement"):
            if self.n_blocks < 1:
                raise InvalidScheduleError("need at least one block")
            return
        if self.kind != "essentially_cyclic":
            raise InvalidScheduleError(f"unknown schedule kind {self.kind!r}")
        if self.period < 1:
            raise InvalidScheduleError("period must be >= 1")
        if not self.groups:
            raise InvalidScheduleError("need at least one group")
        every = set(range(self.n_blocks))
        for g in self.groups:
            if not g:
                raise InvalidScheduleError("empty group")
            if not set(g) <= every:
                raise InvalidScheduleError(f"group {g} references unknown blocks")
        # Every window of `period` consecutive groups must cover all blocks.
        n_g = len(self.groups)
        for start in range(n_g):
            window = set()
            for t in range(self.period):
                window |= set(self.groups[(start + t) % n_g])
            if window != every:
                raise InvalidScheduleError(
                    f"window of {self.period} groups starting at {start} covers "
                    f"{sorted(window)}, not all {self.n_blocks} blocks")

    def period_length(self) -> int:
        return self.period if self.kind == "essentially_cyclic" else self.n_blocks


def schedule_next(schedule: Schedule, iteration: int) -> BlockIndex:
    """Part to update at a 1-based iteration index."""
    if iteration < 1:
        raise InvalidArgumentError("iteration index starts at 1")
    schedule.validate()
    if schedule.kind == "cyclic":
        return (iteration - 1) % schedule.n_blocks
    if schedule.kind == "essentially_cyclic":
        g = schedule.groups[(iteration - 1) % len(schedule.groups)]
        return g[0] if len(g) == 1 else g
    if schedule.kind == "max_improvement":
        return tuple(range(schedule.n_blocks))
    raise InvalidScheduleError(f"unknown schedule kind {schedule.kind!r}")


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


def armijo_step(f: ObjectiveOracle, x: Point, d: np.ndarray, fprime: float,
                params: ArmijoParams = ArmijoParams()) -> tuple[float, Point]:
    """Largest step alpha_init * beta^j whose decrease beats sigma * alpha * |f'|.

    Accepts alpha when f(x) - f(x + alpha d) >= -sigma * alpha * fprime,
    with fprime the directional derivative of f at x along d (must be <= 0).
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != x.values.shape:
        raise InvalidArgumentError("direction shape does not match point")
    if not np.any(d):
        raise InvalidArgumentError("direction is identically zero")
    fprime = float(fprime)
    if fprime > 0:
        raise DescentDirectionError(f"directional derivative {fprime} is positive")
    fx = f.value_at(x.values)
    alpha = params.alpha_init
    for _ in range(params.max_backtracks + 1):
        trial = x.values + alpha * d
        if fx - f.value_at(trial) >= -params.sigma * alpha * fprime:
            return alpha, x.with_values(trial)
        alpha *= params.beta
    raise LineSearchError(
        f"no acceptable step after {params.max_backtracks} backtracks")


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 1000
    tol: float = 1e-8
    schedule: Schedule | None = None
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
                      iteration: int) -> float | None:
    # max over blocks of f(x) - min_xi u(xi, x); zero at a coordinatewise
    # surrogate-stationary point.
    try:
        fx = f.value_at(x.values)
        gaps = []
        for i in range(x.structure.n_blocks):
            _, umin = u.minimize(i, x, iteration)
            gaps.append(fx - float(umin))
        return float(max(gaps))
    except Exception:
        return None


def _upper_bound_loop(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
                      opts: SolveOptions, parts_for, period: int,
                      misum: bool) -> tuple[Point, Trace]:
    x = x0
    fx = f.value_at(x.values)
    trace = Trace(initial_objective=fx)
    small_steps = 0
    small_gaps = 0
    status = "max_iters"
    for r in range(1, opts.max_iters + 1):
        t0 = time.perf_counter_ns() if opts.record_timings else 0
        extras: dict = {}
        try:
            if misum:
                # Solve every block subproblem; update the block whose
                # surrogate minimum is lowest (ties: lowest index).
                results = [u.minimize(i, x, r) for i in range(x.structure.n_blocks)]
                minima = np.array([float(v) for _, v in results])
                k = int(np.argmin(minima))
                part: BlockIndex = k
                xi, umin = results[k][0], float(minima[k])
                extras["block_minima"] = tuple(float(v) for v in minima)
            else:
                part = parts_for(r)
                xi, umin = u.minimize(part, x, r)
                umin = float(umin)
        except Exception as exc:  # noqa: BLE001 - rewrapped with the iteration index
            raise _wrap_oracle_failure(exc, r) from exc
        x_new = x.with_part(part, xi)
        f_new = f.value_at(x_new.values)
        promised = fx - umin
        realized = fx - f_new
        elapsed = (time.perf_counter_ns() - t0) if opts.record_timings else 0
        trace.append(TraceRecord(iteration=r, block=part, objective=f_new,
                                 step_size=None, elapsed_ns=elapsed, extras=extras))
        x, fx = x_new, f_new
        if opts.target_objective is not None and f_new < opts.target_objective:
            status = "converged"
            break
        scale = 1.0 + abs(f_new)
        small_steps = small_steps + 1 if abs(realized) <= opts.tol * scale else 0
        small_gaps = small_gaps + 1 if abs(promised) <= opts.tol * scale else 0
        if small_steps >= period or small_gaps >= period:
            status = "converged"
            break
    trace.terminal_status = status
    trace.stationarity_gap = _stationarity_gap(f, u, x, trace.n_iterations)
    return x, trace


def run_sum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
            opts: SolveOptions = SolveOptions()) -> tuple[Point, Trace]:
    """Whole-variable surrogate minimization: x^(r+1) = argmin u(x, x^r)."""
    n = x0.structure.n_blocks
    part: BlockIndex = 0 if n == 1 else tuple(range(n))
    return _upper_bound_loop(f, u, x0, opts, lambda r: part, period=1, misum=False)


def run_bsum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
             opts: SolveOptions = SolveOptions(),
             feasible: Sequence[FeasibleSetOracle] | None = None) -> tuple[Point, Trace]:
    """Block-coordinate surrogate minimization under a cyclic-type schedule."""
    _check_feasible_start(x0, feasible)
    schedule = opts.schedule or Schedule.cyclic(x0.structure.n_blocks)
    if schedule.kind not in ("cyclic", "essentially_cyclic"):
        raise InvalidArgumentError(
            "run_bsum takes a cyclic or essentially_cyclic schedule; "
            "use run_misum for max_improvement")
    if schedule.n_blocks != x0.structure.n_blocks:
        raise InvalidScheduleError("schedule block count does not match the point")
    schedule.validate()
    return _upper_bound_loop(f, u, x0, opts, lambda r: schedule_next(schedule, r),
                             period=schedule.period_length(), misum=False)


def run_misum(f: ObjectiveOracle, u: BlockSurrogateOracle, x0: Point,
              opts: SolveOptions = SolveOptions(),
              feasible: Sequence[FeasibleSetOracle] | None = None) -> tuple[Point, Trace]:
    """Maximum-improvement variant: update the block promising the lowest minimum."""
    _check_feasible_start(x0, feasible)
    if opts.schedule is not None and opts.schedule.kind != "max_improvement":
        raise InvalidArgumentError("run_misum only accepts a max_improvement schedule")
    return _upper_bound_loop(f, u, x0, opts, None,
                             period=x0.structure.n_blocks, misum=True)


def run_bsca(f: ObjectiveOracle, h: BlockSurrogateOracle, x0: Point,
             opts: SolveOptions = SolveOptions(),
             feasible: Sequence[FeasibleSetOracle] | None = None) -> tuple[Point, Trace]:
    """Convex-approximation descent with Armijo backtracking.

    Each iteration minimizes the convex model h over the scheduled part,
    takes d = argmin - current part as a direction, and line-searches f
    along it. h need not upper-bound f; f must expose a gradient.
    """
    if f.gradient is None:
        raise InvalidArgumentError("run_bsca requires an objective gradient")
    _check_feasible_start(x0, feasible)
    schedule = opts.schedule or Schedule.cyclic(x0.structure.n_blocks)
    if schedule.kind not in ("cyclic", "essentially_cyclic"):
        raise InvalidArgumentError("run_bsca takes a cyclic or essentially_cyclic schedule")
    if schedule.n_blocks != x0.structure.n_blocks:
        raise InvalidScheduleError("schedule block count does not match the point")
    schedule.validate()

    def part_direction(part: BlockIndex, x: Point, r: int) -> np.ndarray:
        xi, _ = h.minimize(part, x, r)
        return np.asarray(xi, dtype=np.float64) - x.part(part)

    x = x0
    fx = f.value_at(x.values)
    trace = Trace(initial_objective=fx)
    status = "max_iters"
    for r in range(1, opts.max_iters + 1):
        t0 = time.perf_counter_ns() if opts.record_timings else 0
        part = schedule_next(schedule, r)
        try:
            d_part = part_direction(part, x, r)
        except Exception as exc:  # noqa: BLE001
            raise _wrap_oracle_failure(exc, r) from exc
        if float(np.linalg.norm(d_part)) <= opts.tol:
            # Scheduled part is already model-stationary; if every block is,
            # the run is done (sound to check now, x has not moved).
            all_small = all(
                float(np.linalg.norm(part_direction(i, x, r))) <= opts.tol
                for i in range(x.structure.n_blocks))
            elapsed = (time.perf_counter_ns() - t0) if opts.record_timings else 0
            trace.append(TraceRecord(iteration=r, block=part, objective=fx,
                                     step_size=None, elapsed_ns=elapsed))
            if all_small:
                status = "converged"
                break
            continue
        g = f.gradient_at(x.values)
        idx = x.structure.part_indices(part)
        fprime = float(g[idx] @ d_part)
        if fprime > 0:
            raise DescentDirectionError(
                f"iteration {r}: model step is not a descent direction (f' = {fprime})")
        d_full = np.zeros(x.dim)
        d_full[idx] = d_part
        try:
            alpha, x_new = armijo_step(f, x, d_full, fprime, opts.armijo)
        except LineSearchError as exc:
            raise SolverError(str(exc), iteration=r) from exc
        f_new = f.value_at(x_new.values)
        elapsed = (time.perf_counter_ns() - t0) if opts.record_timings else 0
        trace.append(TraceRecord(iteration=r, block=part, objective=f_new,
                                 step_size=alpha, elapsed_ns=elapsed,
                                 extras={"directional_derivative": fprime}))
        x, fx = x_new, f_new
        if opts.target_objective is not None and f_new < opts.target_objective:
            status = "converged"
            break
    trace.terminal_status = status
    return x, trace
