"""Shared variable-space bookkeeping for the block solvers.

A decision variable is a flat float64 vector split into contiguous blocks.
Blocks are 0-indexed. ``Point`` couples a vector with its ``BlockStructure``
and gives copy-on-write access to single blocks or to groups of blocks
(a "part" is either an int block index or a tuple of them).

Also here: feasible-set oracles (each a Euclidean projection: a block
step minimizes over its set, so nothing tests membership),
objective oracles, the iteration trace container, seeded random streams,
and the exception hierarchy used across the package.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily; every RngStream needs it

__all__ = [
    "BsumError",
    "InvalidArgumentError",
    "InvalidScheduleError",
    "NumericFailure",
    "SolverError",
    "DescentDirectionError",
    "LineSearchError",
    "ComponentCollapseError",
    "BlockIndex",
    "BlockStructure",
    "make_block_structure",
    "Point",
    "FeasibleSetOracle",
    "unconstrained",
    "box",
    "nonnegative",
    "ball",
    "simplex",
    "ObjectiveOracle",
    "TraceRecord",
    "Trace",
    "RngStream",
]


class BsumError(Exception):
    """Base class for all package errors; a driver sets ``iteration`` to
    the iteration the error was raised in, and the message then names it."""

    iteration: int | None = None

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.iteration is None else f"iteration {self.iteration}: {message}"


class InvalidArgumentError(BsumError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class InvalidScheduleError(InvalidArgumentError):
    """A block schedule fails its coverage or indexing requirements."""


class NumericFailure(BsumError, ArithmeticError):
    """An oracle produced a non-finite value where a finite one is required."""


class SolverError(BsumError):
    """An iterative solver failed."""


class DescentDirectionError(InvalidArgumentError):
    """A line search was handed a direction with positive directional derivative."""


class LineSearchError(SolverError):
    """Backtracking exhausted its budget without an acceptable step."""


class ComponentCollapseError(SolverError):
    """A mixture component lost essentially all responsibility mass."""


# A part is one block (int) or a group of distinct blocks (tuple of ints).
BlockIndex = Union[int, tuple]


@dataclass(frozen=True)
class BlockStructure:
    """Partition of a length-``total`` vector into contiguous blocks."""

    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    def locate(self, part: BlockIndex) -> tuple[BlockIndex, slice | np.ndarray, int]:
        """Canonical part (an int for one block, a sorted tuple for a group),
        its flat coordinates (a slice for one block, an index array in block
        order for a group) and its dimension. Every index must be an integer."""
        if not (type(part) is int and 0 <= part < len(self.dims)):
            items = part if isinstance(part, Iterable) and not isinstance(part, bytes) else (part,)
            blocks = sorted(_index(i, "a block index") for i in items)
            if not blocks:
                raise InvalidArgumentError("empty block group")
            if len(set(blocks)) != len(blocks):
                raise InvalidArgumentError(f"duplicate block indices in group {tuple(blocks)}")
            if blocks[0] < 0 or blocks[-1] >= len(self.dims):
                raise InvalidArgumentError(
                    f"part {part!r} has a block index out of range [0, {self.n_blocks})")
            if len(blocks) > 1:
                where = np.concatenate([np.arange(self.offsets[i], self.offsets[i] + self.dims[i])
                                        for i in blocks])
                return tuple(blocks), where, where.size
            part = blocks[0]
        start, dim = self.offsets[part], self.dims[part]
        return part, slice(start, start + dim), dim

    def part_blocks(self, part: BlockIndex) -> tuple[int, ...]:
        part = self.locate(part)[0]
        return part if type(part) is tuple else (part,)


_INDEX_MAX = int(np.iinfo(np.intp).max)


def _index(value, what: str, error: type[BsumError] = InvalidArgumentError,
           least: int | None = None) -> int:
    """The package's one rule for counts and indices: ``value`` through
    ``operator.index``, within numpy's index range and at least ``least``
    when given; a bool, a float or a string raises ``error``."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            least = -_INDEX_MAX - 1 if least is None else least
            if least <= value <= _INDEX_MAX:
                return value
            raise error(f"{what} must be an integer in [{least}, {_INDEX_MAX}], got {value!r}")
    raise error(f"{what} must be an integer, got {value!r}")


def _real(value, what: str, sign: str = "") -> float:
    """The package's one rule for reals: a finite real number, numpy scalars
    included, as a float, and above zero for ``sign="positive"`` or not below
    it for ``"nonnegative"``; anything else raises InvalidArgumentError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x) or x < 0 and sign == "nonnegative" or x <= 0 and sign == "positive":
        raise InvalidArgumentError(f"{what} must be {sign + ' and ' if sign else ''}finite, "
                                   f"got {value!r}")
    return x


def make_block_structure(dims: Sequence[int]) -> BlockStructure:
    dims_t = tuple(_index(d, "a block size", least=1) for d in dims)
    if len(dims_t) == 0:
        raise InvalidArgumentError("at least one block is required")
    offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(dims_t)[:-1])))
    return BlockStructure(dims=dims_t, offsets=offsets, total=int(sum(dims_t)))


@dataclass(frozen=True)
class Point:
    """Immutable flat vector tied to a block structure.

    ``values`` is stored read-only; all mutation goes through ``with_part``
    which copies. Writing one part never disturbs the others. ``_facts``
    keeps what layers computed at the point and lives as long as the point.
    """

    values: np.ndarray
    structure: BlockStructure
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise InvalidArgumentError(f"point values must be 1-d, got shape {v.shape}")
        if v.shape[0] != self.structure.total:
            raise InvalidArgumentError(
                f"point length {v.shape[0]} does not match structure total {self.structure.total}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.structure.total

    def part(self, part: BlockIndex) -> np.ndarray:
        return self.values[self.structure.locate(part)[1]]

    def with_part(self, part: BlockIndex, new_values: np.ndarray) -> "Point":
        part, where, dim = self.structure.locate(part)
        new_values = np.asarray(new_values, dtype=np.float64).ravel()
        if new_values.shape[0] != dim:
            raise InvalidArgumentError(
                f"part {part} has dimension {dim}, got {new_values.shape[0]} values")
        out = self.values.copy()
        out[where] = new_values
        return Point._adopt(out, self.structure)

    @classmethod
    def _adopt(cls, values: np.ndarray, structure: BlockStructure) -> "Point":
        # ``values`` is a fresh float64 vector of length ``structure.total``
        # that no caller holds, so it is frozen in place rather than copied.
        values.setflags(write=False)
        point = object.__new__(cls)
        object.__setattr__(point, "values", values)
        object.__setattr__(point, "structure", structure)
        object.__setattr__(point, "_facts", {})
        return point

    def with_values(self, values: np.ndarray) -> "Point":
        return Point(values, self.structure)


def _with_part_rows(structure: BlockStructure, part: BlockIndex, xi_rows, anchor_rows):
    """``Point.with_part`` on stacks: the anchor rows y, each with the part set
    to its xi row, the part's flat coordinates and xi - the part of y."""
    _, where, dim = structure.locate(part)
    y, xi = np.asarray(anchor_rows, dtype=np.float64), np.asarray(xi_rows, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != structure.total or xi.shape != (len(y), dim):
        raise InvalidArgumentError(f"{xi.shape} part rows do not fit {y.shape} anchor rows")
    z = y.copy()
    z[:, where] = xi
    return y, z, where, xi - y[:, where]


@dataclass(frozen=True)
class FeasibleSetOracle:
    """Closed convex set, given by its Euclidean projection.

    ``projection`` also takes a stack of points, one per row, and gives each
    row the bits of projecting that row alone.
    """

    projection: Callable[[np.ndarray], np.ndarray]

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.projection(np.asarray(x, dtype=np.float64)), dtype=np.float64)


def unconstrained() -> FeasibleSetOracle:
    return FeasibleSetOracle(lambda x: x)


def box(lo, hi) -> FeasibleSetOracle:
    lo, hi = np.asarray(lo), np.asarray(hi)
    # Bounds are arrays, so the scalar rule does not apply; a NaN bound fails ``<=``.
    if lo.dtype.kind not in "iuf" or hi.dtype.kind not in "iuf" or not np.all(lo <= hi):
        raise InvalidArgumentError(f"box bounds must be real with lo <= hi, got {lo!r} and {hi!r}")
    lo, hi = lo.astype(np.float64), hi.astype(np.float64)
    return FeasibleSetOracle(lambda x: np.clip(x, lo, hi))


def nonnegative() -> FeasibleSetOracle:
    return FeasibleSetOracle(lambda x: np.maximum(x, 0.0))


def ball(radius: float) -> FeasibleSetOracle:
    radius = _real(radius, "ball radius", "positive")

    def _proj(x):
        # Row norms from dot products, as np.linalg.norm of one vector; rows inside scale by 1.
        nrm = np.sqrt(np.vecdot(x, x))[..., None]
        return x * (radius / np.maximum(nrm, radius))

    return FeasibleSetOracle(_proj)


def _project_simplex(x: np.ndarray) -> np.ndarray:
    # Euclidean projection of each row onto {p : p >= 0, sum p = 1}, sort-based.
    if not np.all(np.isfinite(x)):
        raise NumericFailure("cannot project non-finite values onto the simplex")
    u = np.sort(x, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    cond = u + (1.0 - css) / np.arange(1, x.shape[-1] + 1) > 0
    if not np.all(cond[..., 0]):  # holds in exact arithmetic; a huge entry can swamp it
        raise NumericFailure("simplex projection lost a row to rounding")
    rho = x.shape[-1] - 1 - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)  # last True
    tau = (np.take_along_axis(css, rho, axis=-1) - 1.0) / (rho + 1)
    return np.maximum(x - tau, 0.0)


def simplex(floor: float = 0.0) -> FeasibleSetOracle:
    """Probability simplex, optionally shrunk so every coordinate is >= floor."""
    floor = _real(floor, "simplex floor", "nonnegative")

    def _proj(x):
        n = x.shape[-1]
        scale = 1.0 - n * floor
        if scale <= 0:
            raise InvalidArgumentError("simplex floor too large for dimension")
        # Shifted simplex: p = floor + scale * q with q on the unit simplex.
        return floor + scale * _project_simplex((x - floor) / scale)

    return FeasibleSetOracle(_proj)


@dataclass(frozen=True)
class ObjectiveOracle:
    """Objective value (and optional gradient) over the flat vector.

    Each callable takes one point, from the drivers, or an (S, n) stack of
    points, one per row, from the checks: ``value`` then gives (S,) values
    and ``gradient`` (S, n) gradients, each row the bits of that row alone.
    ``values_at`` and ``gradients_at`` take the stacks. Both must depend on x alone:
    f and grad f are kept on each ``Point``, so a reused point serves them cached.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def value_at(self, x: np.ndarray) -> float:
        return _finite(self.value(np.asarray(x, dtype=np.float64)))

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        if self.gradient is None:
            raise InvalidArgumentError("objective oracle has no gradient")
        g = np.asarray(self.gradient(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericFailure("gradient returned non-finite values")
        return g

    def values_at(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        v = np.asarray(self.value(rows), dtype=np.float64)
        if rows.ndim != 2 or v.shape != rows.shape[:1]:
            raise InvalidArgumentError(f"values of {rows.shape} rows came back as {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NumericFailure(
                f"objective returned non-finite value {float(v[~np.isfinite(v)][0])!r}")
        return v

    def gradients_at(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        g = self.gradient_at(rows)
        if rows.ndim != 2 or g.shape != rows.shape:
            raise InvalidArgumentError(f"gradients of {rows.shape} rows came back as {g.shape}")
        return g


def _finite(v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise NumericFailure(f"objective returned non-finite value {v!r}")
    return v


def _value_of(f: ObjectiveOracle, x: Point) -> float:
    """f at the point, evaluated once per point and kept there under
    ``f.value``. A layer that can get f more cheaply leaves a zero-argument
    callable under that key, run (and checked finite) only when f is asked for."""
    fact = x._facts.get(f.value)
    if fact is None or callable(fact):
        fact = x._facts[f.value] = f.value_at(x.values) if fact is None else _finite(fact())
    return fact


def _gradient_of(f: ObjectiveOracle, x: Point) -> np.ndarray:
    """grad f at the point, evaluated once per point and kept there under ``f.gradient``."""
    g = x._facts.get(f.gradient)
    return g if g is not None else x._facts.setdefault(f.gradient, f.gradient_at(x.values))


@dataclass(frozen=True)
class TraceRecord:
    """One solver iteration: 1-based index, updated part, objective after the update."""

    iteration: int
    block: Any
    objective: float
    step_size: float | None = None
    extras: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class Trace:
    """Record of a solver run.

    ``initial_objective`` is the value at the starting point, before
    iteration 1; the monotone-descent audit checks the whole chain.
    """

    records: list[TraceRecord] = field(default_factory=list)
    terminal_status: str = "max_iters"
    initial_objective: float = math.nan
    stationarity_gap: float | None = None
    warnings: list[str] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise InvalidArgumentError("trace iterations must strictly increase")
        if record.iteration < 1:
            raise InvalidArgumentError("trace iterations start at 1")
        self.records.append(record)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records], dtype=np.float64)

    @property
    def n_iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective if self.records else self.initial_objective


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, substream path).

    The same key always yields the same generator. Independent replicate
    streams come from ``substream(k)``; nesting extends the key.
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", _index(self.seed, "seed", least=0))
        if not isinstance(self.key, Iterable) or isinstance(self.key, (str, bytes)):
            raise InvalidArgumentError(f"a stream key must be a sequence of integers, got {self.key!r}")
        object.__setattr__(self, "key", tuple(_index(k, "a stream key entry") for k in self.key))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.key + (_index(index, "substream index", least=0),))

