"""Shared variable-space bookkeeping for the block solvers.

A decision variable is a flat float64 vector split into contiguous blocks.
Blocks are 0-indexed. ``Point`` couples a vector with its ``BlockStructure``
and gives copy-on-write access to single blocks or to groups of blocks
(a "part" is either an int block index or a tuple of them).

Also here: feasible-set oracles (membership + Euclidean projection),
objective oracles, the iteration trace container, seeded random streams,
and the exception hierarchy used across the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

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
    """Base class for all package errors."""


class InvalidArgumentError(BsumError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


class InvalidScheduleError(InvalidArgumentError):
    """A block schedule fails its coverage or indexing requirements."""


class NumericFailure(BsumError, ArithmeticError):
    """An oracle produced a non-finite value where a finite one is required."""


class SolverError(BsumError):
    """An iterative solver failed; carries the iteration index when known."""

    def __init__(self, message: str, iteration: int | None = None):
        self.iteration = iteration
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)


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

    def block_slice(self, i: int) -> slice:
        if not 0 <= i < self.n_blocks:
            raise InvalidArgumentError(f"block index {i} out of range [0, {self.n_blocks})")
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    def normalize_part(self, part: BlockIndex) -> BlockIndex:
        """Canonical form of a part: int for one block, sorted tuple for a group."""
        if isinstance(part, (int, np.integer)):
            self.block_slice(int(part))
            return int(part)
        blocks = tuple(sorted(int(i) for i in part))
        if not blocks:
            raise InvalidArgumentError("empty block group")
        if len(set(blocks)) != len(blocks):
            raise InvalidArgumentError(f"duplicate block indices in group {blocks}")
        for i in blocks:
            self.block_slice(i)
        if len(blocks) == 1:
            return blocks[0]
        return blocks

    def part_blocks(self, part: BlockIndex) -> tuple[int, ...]:
        part = self.normalize_part(part)
        return (part,) if isinstance(part, int) else part

    def part_indices(self, part: BlockIndex) -> np.ndarray:
        """Flat coordinate indices covered by a part, in block order."""
        return self._indices(self.part_blocks(part))

    def part_dim(self, part: BlockIndex) -> int:
        return sum(self.dims[i] for i in self.part_blocks(part))

    def _indices(self, blocks: tuple[int, ...]) -> np.ndarray:
        return np.concatenate([np.arange(self.offsets[i], self.offsets[i] + self.dims[i])
                               for i in blocks])

    def _locate(self, part: BlockIndex) -> tuple[BlockIndex, slice | np.ndarray, int]:
        """Normalized part, its coordinates (a slice for one block) and its
        dimension, with the part validated once."""
        part = self.normalize_part(part)
        if isinstance(part, int):
            start, dim = self.offsets[part], self.dims[part]
            return part, slice(start, start + dim), dim
        return part, self._indices(part), sum(self.dims[i] for i in part)


def make_block_structure(dims: Sequence[int]) -> BlockStructure:
    dims_t = tuple(int(d) for d in dims)
    if len(dims_t) == 0:
        raise InvalidArgumentError("at least one block is required")
    if any(d < 1 for d in dims_t):
        raise InvalidArgumentError(f"block sizes must be positive, got {dims_t}")
    offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(dims_t)[:-1])))
    return BlockStructure(dims=dims_t, offsets=offsets, total=int(sum(dims_t)))


@dataclass(frozen=True)
class Point:
    """Immutable flat vector tied to a block structure.

    ``values`` is stored read-only; all mutation goes through ``with_part``
    which copies. Writing one part never disturbs the others.
    """

    values: np.ndarray
    structure: BlockStructure

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

    def block(self, i: int) -> np.ndarray:
        return self.values[self.structure.block_slice(i)]

    def part(self, part: BlockIndex) -> np.ndarray:
        return self.values[self.structure._locate(part)[1]]

    def with_part(self, part: BlockIndex, new_values: np.ndarray) -> "Point":
        part, where, dim = self.structure._locate(part)
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
        return point

    def with_values(self, values: np.ndarray) -> "Point":
        return Point(values, self.structure)


@dataclass(frozen=True)
class FeasibleSetOracle:
    """Closed convex set described by a membership test and a projection."""

    membership: Callable[[np.ndarray], bool]
    projection: Callable[[np.ndarray], np.ndarray]

    def contains(self, x: np.ndarray) -> bool:
        return bool(self.membership(np.asarray(x, dtype=np.float64)))

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.projection(np.asarray(x, dtype=np.float64)), dtype=np.float64)


_MEMBER_TOL = 1e-10


def unconstrained() -> FeasibleSetOracle:
    return FeasibleSetOracle(
        membership=lambda x: bool(np.all(np.isfinite(x))),
        projection=lambda x: x,
    )


def box(lo, hi) -> FeasibleSetOracle:
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(lo > hi):
        raise InvalidArgumentError("box lower bound exceeds upper bound")
    return FeasibleSetOracle(
        membership=lambda x: bool(np.all(x >= lo - _MEMBER_TOL) and np.all(x <= hi + _MEMBER_TOL)),
        projection=lambda x: np.clip(x, lo, hi),
    )


def nonnegative() -> FeasibleSetOracle:
    return FeasibleSetOracle(
        membership=lambda x: bool(np.all(x >= -_MEMBER_TOL)),
        projection=lambda x: np.maximum(x, 0.0),
    )


def ball(radius: float) -> FeasibleSetOracle:
    radius = float(radius)
    if radius <= 0:
        raise InvalidArgumentError("ball radius must be positive")

    def _proj(x):
        nrm = float(np.linalg.norm(x))
        if nrm <= radius:
            return x
        return x * (radius / nrm)

    return FeasibleSetOracle(
        membership=lambda x: bool(np.linalg.norm(x) <= radius + _MEMBER_TOL),
        projection=_proj,
    )


def _project_simplex(x: np.ndarray) -> np.ndarray:
    # Euclidean projection onto {p : p >= 0, sum p = 1}, sort-based.
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, x.size + 1)
    cond = u + (1.0 - css) / k > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(x - tau, 0.0)


def simplex(floor: float = 0.0) -> FeasibleSetOracle:
    """Probability simplex, optionally shrunk so every coordinate is >= floor."""
    floor = float(floor)
    if floor < 0:
        raise InvalidArgumentError("simplex floor must be nonnegative")

    def _member(x):
        return bool(np.all(x >= floor - _MEMBER_TOL)
                    and abs(float(np.sum(x)) - 1.0) <= _MEMBER_TOL * max(1, x.size))

    def _proj(x):
        n = x.size
        scale = 1.0 - n * floor
        if scale <= 0:
            raise InvalidArgumentError("simplex floor too large for dimension")
        # Shifted simplex: p = floor + scale * q with q on the unit simplex.
        return floor + scale * _project_simplex((x - floor) / scale)

    return FeasibleSetOracle(membership=_member, projection=_proj)


@dataclass(frozen=True)
class ObjectiveOracle:
    """Objective value (and optional gradient) over the flat vector."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def value_at(self, x: np.ndarray) -> float:
        v = float(self.value(np.asarray(x, dtype=np.float64)))
        if not math.isfinite(v):
            raise NumericFailure(f"objective returned non-finite value {v!r}")
        return v

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        if self.gradient is None:
            raise InvalidArgumentError("objective oracle has no gradient")
        g = np.asarray(self.gradient(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericFailure("gradient returned non-finite values")
        return g


@dataclass(frozen=True)
class TraceRecord:
    """One solver iteration: 1-based index, updated part, objective after the update."""

    iteration: int
    block: Any
    objective: float
    step_size: float | None = None
    elapsed_ns: int = 0
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
        if int(self.seed) < 0:
            raise InvalidArgumentError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "key", tuple(int(k) for k in self.key))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        if int(index) < 0:
            raise InvalidArgumentError("substream index must be nonnegative")
        return RngStream(self.seed, self.key + (int(index),))

