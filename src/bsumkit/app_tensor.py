"""Rank-R decomposition of dense 3-way tensors by block factor updates.

The objective reported everywhere is the unsquared fit error
|X - [A, B, C]|_F. Each block subproblem is the regularized least-squares
factor update; with the square root applied, the per-block model
sqrt(|X - reconstruction|^2 + lambda |delta|^2) is tight at the anchor,
dominates the fit error, and has the same argmin as the classic update, so
the recorded objective decreases monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .core import (
    BlockIndex,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    RngStream,
    SolverError,
    Trace,
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
# Residuals remembered per surrogate: a misum step adds three candidates,
# and the driver then asks for the chosen one and the next anchor's.
_RESIDUAL_MEMO = 8


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
            A=x.block(0).reshape(i, rank),
            B=x.block(1).reshape(j, rank),
            C=x.block(2).reshape(k, rank),
        )


@dataclass(frozen=True)
class LambdaSchedule:
    """Proximal weight: a constant, or floor + slope * relative fit error."""

    mode: str
    lam: float = 0.0
    lam0: float = 1e-7
    lam1: float = 0.1

    @staticmethod
    def constant(lam: float) -> "LambdaSchedule":
        if lam < 0:
            raise InvalidArgumentError("lambda must be nonnegative")
        return LambdaSchedule(mode="constant", lam=float(lam))

    @staticmethod
    def diminishing(lam0: float = 1e-7, lam1: float = 0.1) -> "LambdaSchedule":
        if lam0 < 0 or lam1 < 0:
            raise InvalidArgumentError("lambda coefficients must be nonnegative")
        return LambdaSchedule(mode="diminishing", lam0=float(lam0), lam1=float(lam1))


def khatri_rao(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product: row (i, j) is U[i, :] * V[j, :]."""
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise InvalidArgumentError("khatri_rao needs matrices with equal column counts")
    p, r = U.shape
    q = V.shape[0]
    return (U[:, None, :] * V[None, :, :]).reshape(p * q, r)


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
    return float(np.linalg.norm(t.values - approx))


def _mode_pieces(f: CpFactors, mode: int):
    if mode == 1:
        return f.A, khatri_rao(f.C, f.B)
    if mode == 2:
        return f.B, khatri_rao(f.C, f.A)
    if mode == 3:
        return f.C, khatri_rao(f.B, f.A)
    raise InvalidArgumentError(f"mode must be 1, 2, or 3, got {mode}")


def als_factor_update(t: DenseTensor3, f: CpFactors, mode: int,
                      lam: float = 0.0, unfolded: np.ndarray | None = None) -> np.ndarray:
    """Regularized least-squares update of one factor, the other two frozen.

    Solves (gram + lam I) on the right where gram is the Hadamard product of
    the frozen factors' Gram matrices; lam = 0 is the plain alternating
    least-squares step and requires a well-conditioned gram matrix
    (2-norm condition number at most 1e12). Non-finite factors or lambda and
    a system that is not positive definite raise SolverError.
    """
    if lam < 0:
        raise InvalidArgumentError("lambda must be nonnegative")
    current, kr = _mode_pieces(f, mode)
    x_mat = unfold(t, mode) if unfolded is None else unfolded
    gram = kr.T @ kr
    lhs = gram + lam * np.eye(gram.shape[0])
    rhs = x_mat @ kr + lam * current
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise SolverError("factor update met non-finite factors or lambda")
    if lam == 0.0:
        # lhs is a symmetric Gram matrix: its eigenvalues are its singular
        # values, so this is the 2-norm condition number without an SVD.
        eig = np.linalg.eigvalsh(lhs)
        if not eig[0] > 0.0 or eig[-1] / eig[0] > _GRAM_COND_LIMIT:
            raise SolverError(
                "gram matrix is numerically singular; add a proximal term (lambda > 0)")
    # The LAPACK calls behind scipy.linalg.cho_factor/cho_solve, with the
    # same arguments, minus their finiteness checks (done above).
    chol, info = dpotrf(lhs, lower=1, clean=0)
    if info != 0:
        raise SolverError(
            "gram matrix is not positive definite; add a proximal term (lambda > 0)")
    solution, info = dpotrs(chol, rhs.T, lower=1)
    if info != 0:
        raise SolverError(f"Cholesky solve failed (LAPACK info {info})")
    return solution.T


def lambda_value(schedule: LambdaSchedule, t: DenseTensor3, f: CpFactors) -> float:
    return _lambda(schedule, t.norm(), lambda: cp_residual(t, f))


def _lambda(schedule: LambdaSchedule, norm: float, residual) -> float:
    # ``norm`` is |X|_F and ``residual()`` the fit error at the factors;
    # only the diminishing schedule calls it.
    if schedule.mode == "constant":
        return schedule.lam
    if schedule.mode != "diminishing":
        raise InvalidArgumentError(f"unknown lambda schedule {schedule.mode!r}")
    if norm == 0.0:
        raise InvalidArgumentError(
            "diminishing lambda needs a nonzero tensor (relative residual undefined)")
    return schedule.lam0 + schedule.lam1 * residual() / norm


def swamp_factors(theta: float) -> CpFactors:
    """Rank-3 factors whose columns become collinear as theta -> 0."""
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
    if rank < 1:
        raise InvalidArgumentError("rank must be >= 1")
    i, j, k = shape
    gen = rng.generator()
    f = CpFactors(
        A=gen.uniform(0.0, 1.0, size=(i, rank)),
        B=gen.uniform(0.0, 1.0, size=(j, rank)),
        C=gen.uniform(0.0, 1.0, size=(k, rank)),
    )
    return reconstruct(f)


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
        i, j, k = (int(tok) for tok in header)
    except ValueError as exc:
        raise InvalidArgumentError("tensor dimensions must be integers") from exc
    if min(i, j, k) < 1:
        raise InvalidArgumentError("tensor dimensions must be positive")
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

    value(part, xi, y) = sqrt(|X - reconstruction|^2 + lam |xi - y_part|^2)
    where the reconstruction substitutes xi into factor block ``part``.

    The anchor's factors and lambda are built once per anchor ``Point``, and
    the fit error is remembered for the last few flat vectors it was
    computed at, so a diminishing lambda reuses the residual of the step
    that produced the anchor.
    """

    def __init__(self, tensor: DenseTensor3, rank: int, schedule: LambdaSchedule):
        if rank < 1:
            raise InvalidArgumentError("rank must be >= 1")
        self.tensor = tensor
        self.rank = int(rank)
        self.schedule = schedule
        self.unfoldings = (unfold(tensor, 1), unfold(tensor, 2), unfold(tensor, 3))
        self._norm = tensor.norm()
        self._dims = tuple(n * self.rank for n in tensor.shape)
        ends = np.cumsum(self._dims)
        self._slices = tuple(slice(e - d, e) for d, e in zip(self._dims, ends))
        self._anchor: tuple[Point, CpFactors, float] | None = None
        self._residuals: dict[bytes, float] = {}

    def _split(self, v: np.ndarray) -> CpFactors:
        (i, j, k), r = self.tensor.shape, self.rank
        a, b, c = self._slices
        return CpFactors(v[a].reshape(i, r), v[b].reshape(j, r), v[c].reshape(k, r))

    def _residual(self, v: np.ndarray) -> float:
        """Fit error at the flat factor vector ``v``."""
        key = v.tobytes()
        res = self._residuals.get(key)
        if res is None:
            res = cp_residual(self.tensor, self._split(v))
            self._residuals[key] = res
            if len(self._residuals) > _RESIDUAL_MEMO:
                del self._residuals[next(iter(self._residuals))]
        return res

    def _at(self, anchor: Point) -> tuple[CpFactors, float]:
        """The anchor's factors and lambda."""
        state = self._anchor
        if state is None or state[0] is not anchor:
            if anchor.structure.dims != self._dims:
                raise InvalidArgumentError(
                    f"point blocks {anchor.structure.dims} are not factors of shape "
                    f"{self.tensor.shape} at rank {self.rank}")
            lam = _lambda(self.schedule, self._norm, lambda: self._residual(anchor.values))
            state = self._anchor = (anchor, self._split(anchor.values), lam)
        return state[1], state[2]

    def _as_int(self, part: BlockIndex) -> int:
        if not isinstance(part, (int, np.integer)) or not 0 <= part < 3:
            raise InvalidArgumentError("factor updates work on single blocks 0, 1, 2 only")
        return int(part)

    def _model(self, i: int, xi: np.ndarray, anchor: Point, lam: float) -> float:
        sl = self._slices[i]
        merged = anchor.values.copy()
        merged[sl] = xi
        res = self._residual(merged)
        diff = xi - anchor.values[sl]
        return float(np.sqrt(res * res + lam * float(diff @ diff)))

    def value(self, part: BlockIndex, xi: np.ndarray, anchor: Point, iteration: int = 1) -> float:
        i = self._as_int(part)
        _, lam = self._at(anchor)
        xi = np.asarray(xi, dtype=np.float64).ravel()
        if xi.shape[0] != self._dims[i]:
            raise InvalidArgumentError(
                f"factor block {i} has {self._dims[i]} entries, got {xi.shape[0]}")
        return self._model(i, xi, anchor, lam)

    def minimize(self, part: BlockIndex, anchor: Point, iteration: int = 1) -> tuple[np.ndarray, float]:
        i = self._as_int(part)
        factors, lam = self._at(anchor)
        updated = als_factor_update(self.tensor, factors, mode=i + 1, lam=lam,
                                    unfolded=self.unfoldings[i])
        xi = updated.ravel()
        return xi, self._model(i, xi, anchor, lam)


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
    gen = rng.generator()
    i, j, k = t.shape
    return CpFactors(
        A=gen.uniform(0.0, 1.0, size=(i, rank)),
        B=gen.uniform(0.0, 1.0, size=(j, rank)),
        C=gen.uniform(0.0, 1.0, size=(k, rank)),
    )


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
    if rank < 1:
        raise InvalidArgumentError("rank must be >= 1")
    schedule, driver = _mode_pack(mode, lam, lam0, lam1)
    factors0 = init if init is not None else init_factors(t, rank, rng)
    if factors0.rank != rank:
        raise InvalidArgumentError("initial factors have the wrong rank")
    x0 = factors0.to_point()
    surrogate = CpSurrogate(t, rank, schedule)
    # The surrogate's residual at the chosen block update already is f there.
    x, trace = driver(ObjectiveOracle(value=surrogate._residual), surrogate, x0, opts)
    return CpFactors.from_point(x, t.shape, rank), trace
