"""Rank-R decomposition of dense 3-way tensors by block factor updates.

The objective reported everywhere is the unsquared fit error
|X - [A, B, C]|_F. Each block subproblem is the regularized least-squares
factor update; with the square root applied, the per-block model
sqrt(|X - reconstruction|^2 + lambda |delta|^2) is tight at the anchor,
dominates the fit error, and has the same argmin as the classic update, so
the recorded objective decreases monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .core import (
    BlockIndex,
    BlockStructure,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    RngStream,
    SolverError,
    Trace,
    _index,
    _real,
    _value_of,
    _with_part_rows,
    make_block_structure,
)
from .engine import SolveOptions, run_bsum, run_misum

__all__ = [
    "DenseTensor3",
    "CpFactors",
    "LambdaSchedule",
    "khatri_rao",
    "unfold",
    "reconstruct",
    "cp_residual",
    "cp_residual_rows",
    "als_factor_update",
    "lambda_value",
    "build_swamp_instance",
    "swamp_factors",
    "random_rank_instance",
    "read_tensor",
    "write_tensor",
    "init_factors",
    "CpSurrogate",
    "run_cp",
    "CP_MODES",
]

_GRAM_COND_LIMIT = 1e12
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class DenseTensor3:
    """Dense 3-way array of floats."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise InvalidArgumentError(f"expected a 3-way array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("tensor entries must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class CpFactors:
    """Factor triple (A, B, C) with matching column count R."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        B = np.asarray(self.B, dtype=np.float64)
        C = np.asarray(self.C, dtype=np.float64)
        if A.ndim != 2 or B.ndim != 2 or C.ndim != 2:
            raise InvalidArgumentError("factors must be matrices")
        if not (A.shape[1] == B.shape[1] == C.shape[1]):
            raise InvalidArgumentError("factors must share the column count")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @classmethod
    def _views(cls, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> "CpFactors":
        # Float64 matrices of one column count, such as reshaped views of a
        # checked factor vector: adopted without the checks.
        f = object.__new__(cls)
        object.__setattr__(f, "A", A)
        object.__setattr__(f, "B", B)
        object.__setattr__(f, "C", C)
        return f

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    def to_point(self) -> Point:
        structure = make_block_structure([self.A.size, self.B.size, self.C.size])
        return Point(np.concatenate([self.A.ravel(), self.B.ravel(), self.C.ravel()]),
                     structure)

    @staticmethod
    def from_point(x: Point, shape: tuple[int, int, int], rank: int) -> "CpFactors":
        i, j, k = shape
        return CpFactors(
            A=x.part(0).reshape(i, rank),
            B=x.part(1).reshape(j, rank),
            C=x.part(2).reshape(k, rank),
        )


@dataclass(frozen=True)
class LambdaSchedule:
    """Proximal weight lam0 + lam1 * |X - [[A, B, C]]| / |X|; a constant is lam1 = 0."""

    lam0: float
    lam1: float

    def __post_init__(self):
        for name in ("lam0", "lam1"):
            object.__setattr__(self, name, _real(getattr(self, name), name, "nonnegative"))

    @staticmethod
    def constant(lam: float) -> "LambdaSchedule":
        return LambdaSchedule(lam, 0.0)

    @staticmethod
    def diminishing(lam0: float = 1e-7, lam1: float = 0.1) -> "LambdaSchedule":
        return LambdaSchedule(lam0, lam1)


def khatri_rao(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product: row (i, j) is U[i, :] * V[j, :]."""
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise InvalidArgumentError("khatri_rao needs matrices with equal column counts")
    return _khatri_rao(U, V)


def _khatri_rao(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    # khatri_rao for float64 matrices already known to share a column count.
    return (U[:, None, :] * V[None, :, :]).reshape(U.shape[0] * V.shape[0], U.shape[1])


def unfold(t: DenseTensor3, mode: int) -> np.ndarray:
    """Matricize so that mode-m fibers become rows.

    Column order pairs the remaining axes with the later axis slowest, which
    makes unfold(t, 1) equal A @ khatri_rao(C, B).T for a decomposed tensor,
    and cyclically for modes 2 and 3.
    """
    x = t.values
    i, j, k = x.shape
    if mode == 1:
        return x.transpose(0, 2, 1).reshape(i, k * j)
    if mode == 2:
        return x.transpose(1, 2, 0).reshape(j, k * i)
    if mode == 3:
        return x.transpose(2, 1, 0).reshape(k, j * i)
    raise InvalidArgumentError(f"mode must be 1, 2, or 3, got {mode}")


def reconstruct(f: CpFactors) -> DenseTensor3:
    values = np.einsum("ir,jr,kr->ijk", f.A, f.B, f.C)
    return DenseTensor3(values)


def cp_residual(t: DenseTensor3, f: CpFactors) -> float:
    approx = np.einsum("ir,jr,kr->ijk", f.A, f.B, f.C)
    if approx.shape != t.shape:
        raise InvalidArgumentError("factor shapes do not match the tensor")
    # np.linalg.norm's own arithmetic for a flat array, minus its dispatch.
    d = (t.values - approx).ravel()
    return math.sqrt(d.dot(d))


def cp_residual_rows(t: DenseTensor3, rows: np.ndarray, rank: int) -> np.ndarray:
    """``cp_residual`` at each row of a stack of flat factor vectors, each
    A, B, C one after another, row-major with ``rank`` columns."""
    rows = np.asarray(rows, dtype=np.float64)
    (i, j, k), n = t.shape, len(rows)
    if rows.shape != (n, (i + j + k) * rank):
        raise InvalidArgumentError(f"rows of shape {rows.shape} are not rank-{rank} "
                                   f"factors of a {t.shape} tensor")
    a, b = i * rank, (i + j) * rank
    approx = np.einsum("sir,sjr,skr->sijk", rows[:, :a].reshape(n, i, rank),
                       rows[:, a:b].reshape(n, j, rank), rows[:, b:].reshape(n, k, rank))
    d = (t.values - approx).reshape(n, -1)
    return np.sqrt(np.vecdot(d, d))


def _mode_pieces(f: CpFactors, mode: int):
    if mode == 1:
        return f.A, _khatri_rao(f.C, f.B)
    if mode == 2:
        return f.B, _khatri_rao(f.C, f.A)
    if mode == 3:
        return f.C, _khatri_rao(f.B, f.A)
    raise InvalidArgumentError(f"mode must be 1, 2, or 3, got {mode}")


def als_factor_update(t: DenseTensor3, f: CpFactors, mode: int,
                      lam: float = 0.0, unfolded: np.ndarray | None = None) -> np.ndarray:
    """Regularized least-squares update of one factor, the other two frozen.

    Solves (gram + lam I) on the right where gram is the Hadamard product of
    the frozen factors' Gram matrices; lam = 0 is the plain alternating
    least-squares step and requires a well-conditioned gram matrix
    (2-norm condition number at most 1e12). A bad lam raises InvalidArgumentError;
    non-finite factors or a system not positive definite raise SolverError.
    """
    lam = _real(lam, "lambda", "nonnegative")
    current, kr = _mode_pieces(f, mode)
    x_mat = unfold(t, mode) if unfolded is None else unfolded
    lhs = kr.T @ kr
    rhs = x_mat @ kr
    if lam == 0.0:
        # The plain step does not read the current factor but refuses a
        # non-finite one; the eigenvalue gate below proves definiteness.
        finite, proven = np.isfinite(current).all(), True
    else:
        # Rounding moves the computed Gram's eigenvalues by at most
        # (m + 1) eps trace(gram) for m rows of kr (elementwise bound on the
        # dot products, plus the diagonal add); above twice that, gram + lam I
        # is positive definite without a factorization.
        proven = lam > 2.0 * (kr.shape[0] + 1) * _EPS * np.vdot(kr, kr)
        lhs.flat[::lhs.shape[0] + 1] += lam
        rhs += lam * current
        finite = True
    if not (finite and np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise SolverError("factor update met non-finite factors or lambda")
    if lam == 0.0:
        # lhs is a symmetric Gram matrix: its eigenvalues are its singular
        # values, so this is the 2-norm condition number without an SVD.
        eig = _lapack.eigvalsh_lo(lhs)
        if not eig[0] > 0.0 or eig[-1] / eig[0] > _GRAM_COND_LIMIT:
            raise SolverError(
                "gram matrix is numerically singular; add a proximal term (lambda > 0)")
    if proven:
        solution = _lapack.solve(lhs, rhs.T)
    else:
        # Where np.linalg raises LinAlgError, its gufuncs fill their output
        # with NaN and set the invalid flag.
        with np.errstate(invalid="ignore"):
            solution = _lapack.solve(lhs, rhs.T)
            failed = np.isnan(_lapack.cholesky_lo(lhs)).any() or np.isnan(solution).any()
        if failed:
            raise SolverError(
                "gram + lambda I is singular or not positive definite; raise lambda")
    return solution.T


def lambda_value(schedule: LambdaSchedule, t: DenseTensor3, f: CpFactors) -> float:
    return _lambda(schedule, t.norm(), lambda: cp_residual(t, f))


def _lambda(schedule: LambdaSchedule, norm: float, residual) -> float:
    # ``norm`` is |X|_F and ``residual()`` the fit error at the factors;
    # a constant schedule (lam1 = 0) reads neither.
    if schedule.lam1 == 0.0:
        return schedule.lam0
    if norm == 0.0:
        raise InvalidArgumentError(
            "diminishing lambda needs a nonzero tensor (relative residual undefined)")
    return schedule.lam0 + schedule.lam1 * residual() / norm


def swamp_factors(theta: float) -> CpFactors:
    """Rank-3 factors whose columns become collinear as theta -> 0."""
    theta = _real(theta, "theta")
    ct, st = np.cos(theta), np.sin(theta)
    A = np.array([[1.0, ct, 0.0],
                  [0.0, st, 1.0]])
    B = np.array([[3.0, np.sqrt(2.0) * ct, 0.0],
                  [0.0, st, 1.0],
                  [0.0, st, 0.0]])
    C = np.eye(3)
    return CpFactors(A, B, C)


def build_swamp_instance(theta: float) -> DenseTensor3:
    """2 x 3 x 3 rank-3 tensor that induces long stagnation for small theta."""
    return reconstruct(swamp_factors(theta))


def random_rank_instance(shape: tuple[int, int, int], rank: int,
                         rng: RngStream) -> DenseTensor3:
    """Exactly rank-R tensor built from uniform [0, 1) factors."""
    return reconstruct(_uniform_factors(shape, _index(rank, "rank", least=1), rng))


def write_tensor(path, t: DenseTensor3) -> None:
    """Save as text: a header line ``I J K``, then the entries in row-major
    order (last index fastest), one mode-3 fiber per line."""
    i, j, k = t.shape
    rows = t.values.reshape(i * j, k)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{i} {j} {k}\n")
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_tensor(path) -> DenseTensor3:
    """Load the text format produced by write_tensor.

    The header line gives the dimensions; the remaining whitespace-separated
    tokens fill the tensor with the last index fastest.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if len(header) != 3:
        raise InvalidArgumentError("tensor file must start with a line 'I J K'")
    try:
        dims = [int(tok) for tok in header]
    except ValueError as exc:
        raise InvalidArgumentError("tensor dimensions must be integers") from exc
    i, j, k = (_index(n, "a tensor dimension", least=1) for n in dims)
    if len(body) != i * j * k:
        raise InvalidArgumentError(
            f"expected {i * j * k} tensor entries, found {len(body)}")
    try:
        flat = np.array([float(tok) for tok in body], dtype=np.float64)
    except ValueError as exc:
        raise InvalidArgumentError("tensor entries must be numbers") from exc
    return DenseTensor3(flat.reshape(i, j, k))


class CpSurrogate:
    """Per-factor upper-bound model around the current factors.

    u(xi, y) = sqrt(|X - reconstruction|^2 + lam |xi - y_part|^2)
    where the reconstruction substitutes xi into factor block ``part``.

    Each point keeps its facts: its factors and lambda, built once when it
    is an anchor, and the block of the lambda = 0 update that made it.
    ``minimize`` leaves the fit error on the point it returns, so the
    objective there and a diminishing lambda at the next anchor read it. A
    lambda = 0 update of block i reads only the other two factors, so at the
    point it made it gives block i back, and a greedy step does not re-solve
    the block it moved the iteration before.
    """

    def __init__(self, tensor: DenseTensor3, rank: int, schedule: LambdaSchedule):
        self.tensor = tensor
        self.rank = _index(rank, "rank", least=1)
        self.schedule = schedule
        self.unfoldings = (unfold(tensor, 1), unfold(tensor, 2), unfold(tensor, 3))
        self._norm = tensor.norm()
        self._dims = tuple(n * self.rank for n in tensor.shape)
        ends = np.cumsum(self._dims)
        self._slices = tuple(slice(e - d, e) for d, e in zip(self._dims, ends))
        self._objective = ObjectiveOracle(value=self._residual)

    def objective(self) -> ObjectiveOracle:
        """The fit error |X - [A, B, C]|_F over the flat factor vector, or
        over each row of a stack of them."""
        return self._objective

    def _split(self, v: np.ndarray) -> CpFactors:
        (i, j, k), r = self.tensor.shape, self.rank
        a, b, c = self._slices
        return CpFactors._views(v[a].reshape(i, r), v[b].reshape(j, r), v[c].reshape(k, r))

    def _residual(self, v: np.ndarray) -> float:
        """Fit error at the flat factor vector ``v``, or at each row of a stack."""
        if v.ndim == 2:
            return cp_residual_rows(self.tensor, v, self.rank)
        return cp_residual(self.tensor, self._split(v))

    def _at(self, anchor: Point) -> list:
        """[factors, lambda, block of the lambda = 0 update that made it] at the anchor."""
        facts = anchor._facts.setdefault(self, [None, None, None])
        if facts[0] is None:
            self._check(anchor.structure)
            facts[1] = _lambda(self.schedule, self._norm,
                               lambda: _value_of(self._objective, anchor))
            facts[0] = self._split(anchor.values)
        return facts

    def _check(self, structure: BlockStructure) -> None:
        if structure.dims != self._dims:
            raise InvalidArgumentError(
                f"point blocks {structure.dims} are not factors of shape "
                f"{self.tensor.shape} at rank {self.rank}")

    def _as_int(self, part: BlockIndex) -> int:
        if isinstance(part, bool) or not isinstance(part, (int, np.integer)) or not 0 <= part < 3:
            raise InvalidArgumentError("factor updates work on single blocks 0, 1, 2 only")
        return int(part)

    @staticmethod
    def _u(res, lam, diff):
        # u from the fit error at the moved point, lambda and the part step
        # xi - y_part, at one anchor or at each row of a stack.
        return np.sqrt(res * res + lam * np.vecdot(diff, diff))

    def values(self, part: BlockIndex, xi_rows: np.ndarray, anchor_rows: np.ndarray,
               structure: BlockStructure, iteration: int = 1) -> np.ndarray:
        i = self._as_int(part)
        self._check(structure)
        y, z, _, diff = _with_part_rows(structure, i, xi_rows, anchor_rows)
        lam = _lambda(self.schedule, self._norm, lambda: cp_residual_rows(self.tensor, y, self.rank))
        return self._u(cp_residual_rows(self.tensor, z, self.rank), lam, diff)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[Point, float]:
        i = self._as_int(part)
        factors, lam, made_by = self._at(anchor)
        if lam == 0.0 and made_by == i:
            # Made by this very update, which reads only the other factors.
            res = _value_of(self._objective, anchor)
            return anchor, math.sqrt(res * res)
        xi = als_factor_update(self.tensor, factors, mode=i + 1, lam=lam,
                               unfolded=self.unfoldings[i]).ravel()
        sl = self._slices[i]
        merged = anchor.values.copy()
        merged[sl] = xi
        res = cp_residual(self.tensor, self._split(merged))
        z = Point._adopt(merged, anchor.structure)
        z._facts[self._objective.value] = lambda: res
        z._facts[self] = [None, None, i if lam == 0.0 else None]
        if lam == 0.0:  # _u's sqrt(res^2 + 0 * |xi - y_part|^2), rounded the same way
            return z, math.sqrt(res * res)
        return z, float(self._u(res, lam, xi - anchor.values[sl]))


CP_MODES = ("als", "const_prox", "dim_prox", "mbi", "misum")


def _mode_pack(mode: str, lam: float, lam0: float, lam1: float):
    if mode == "als":
        return LambdaSchedule.constant(0.0), run_bsum
    if mode == "const_prox":
        return LambdaSchedule.constant(lam), run_bsum
    if mode == "dim_prox":
        return LambdaSchedule.diminishing(lam0, lam1), run_bsum
    if mode == "mbi":
        return LambdaSchedule.constant(0.0), run_misum
    if mode == "misum":
        return LambdaSchedule.diminishing(lam0, lam1), run_misum
    raise InvalidArgumentError(f"unknown mode {mode!r}, expected one of {CP_MODES}")


def init_factors(t: DenseTensor3, rank: int, rng: RngStream) -> CpFactors:
    """Entries drawn independently from the uniform distribution on [0, 1)."""
    return _uniform_factors(t.shape, rank, rng)


def _uniform_factors(shape: tuple[int, int, int], rank: int, rng: RngStream) -> CpFactors:
    # One generator draws A, then B, then C: every seeded instance and start
    # depends on that order.
    gen = rng.generator()
    return CpFactors(*(gen.uniform(0.0, 1.0, size=(n, rank)) for n in shape))


def run_cp(t: DenseTensor3, rank: int, mode: str = "als",
           opts: SolveOptions = SolveOptions(), rng: RngStream = RngStream(0),
           init: CpFactors | None = None, lam: float = 0.1,
           lam0: float = 1e-7, lam1: float = 0.1) -> tuple[CpFactors, Trace]:
    """Fit a rank-R model with the requested update mode.

    Modes: ``als`` and ``const_prox``/``dim_prox`` cycle the three factors;
    ``mbi`` and ``misum`` solve all three subproblems each iteration and
    update the most promising factor. The trace objective is the unsquared
    fit error, so ``opts.target_objective`` acts as the fit threshold.
    """
    schedule, driver = _mode_pack(mode, lam, lam0, lam1)
    surrogate = CpSurrogate(t, rank, schedule)
    factors0 = init if init is not None else init_factors(t, surrogate.rank, rng)
    if factors0.rank != surrogate.rank:
        raise InvalidArgumentError("initial factors have the wrong rank")
    x, trace = driver(surrogate.objective(), surrogate, factors0.to_point(), opts)
    return CpFactors.from_point(x, t.shape, surrogate.rank), trace
