"""Numeric checks for the surrogate contracts and solver traces.

Sampling can only falsify, never prove: each check draws points from a
``SampleSpace`` and reports every violation with a witness. Reports are
plain data and serialize to JSON. Given the same ``RngStream`` key, every
check is bit-reproducible.

A check draws its samples' uniforms in one generator call per chunk of
``_CHUNK_ROWS`` samples, laid out as if each sample were drawn on its own,
and projects each chunk block by block, so chunking never changes a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    BlockIndex,
    BlockStructure,
    FeasibleSetOracle,
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    RngStream,
    Trace,
    unconstrained,
)

__all__ = [
    "CheckReport",
    "SampleSpace",
    "check_tightness",
    "check_upper_bound",
    "check_first_order_match",
    "check_composite_smooth",
    "audit_trace",
]


@dataclass
class CheckReport:
    """Outcome of one sampling check.

    ``worst_gap`` is the most extreme value of the check's gap statistic
    over all samples (see each check for its meaning); ``witnesses`` lists
    one dict per violation, capped at 25 entries.
    """

    check: str
    n_samples: int
    n_violations: int
    worst_gap: float
    witnesses: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "n_samples": int(self.n_samples),
            "n_violations": int(self.n_violations),
            "worst_gap": float(self.worst_gap),
            "passed": self.passed,
            "witnesses": self.witnesses,
        }


_MAX_WITNESSES = 25
_TIGHT_TOL = 1e-10  # relative mismatch u(y_i, y) vs f(y) a tightness check allows
_BOUND_TOL = 1e-9  # negative slack u - f an upper-bound check allows
_SLOPE_TOL = 1e-4  # relative mismatch of the finest difference quotients
_STEPS = (1e-5, 1e-4, 1e-3)  # difference steps of the slope check, finest first
_CHUNK_ROWS = 4096  # samples drawn and projected together; bounds the sampler's memory


@dataclass(frozen=True)
class SampleSpace:
    """Box sampling composed with per-block projections onto the feasible sets."""

    structure: BlockStructure
    feasible: tuple[FeasibleSetOracle, ...]
    lo: float = -5.0
    hi: float = 5.0

    def __post_init__(self):
        if len(self.feasible) != self.structure.n_blocks:
            raise InvalidArgumentError("one feasible set per block is required")
        if not 0.0 < self.hi - self.lo < np.inf:
            raise InvalidArgumentError("need lo < hi with a finite width hi - lo")

    @staticmethod
    def boxed(structure: BlockStructure, lo: float = -5.0, hi: float = 5.0,
              feasible: Sequence[FeasibleSetOracle] | None = None) -> "SampleSpace":
        if feasible is None:
            feasible = tuple(unconstrained() for _ in range(structure.n_blocks))
        return SampleSpace(structure, tuple(feasible), float(lo), float(hi))

    def sample_points(self, gen: np.random.Generator, n: int) -> list[Point]:
        """``n`` feasible points, drawn as ``n`` one-point draws would be."""
        return [Point._adopt(y, self.structure) for y, _ in self.sample_rows(gen, n)]

    def sample_rows(self, gen: np.random.Generator, n: int, parts: Sequence[BlockIndex] = ()):
        """Yield ``n`` feasible points as rows, each with its candidate.

        With ``parts``, row r's draw is followed by one of part ``parts[r %
        len(parts)]``, and the candidate is the row with that part replaced
        by its projected draw. Without, the candidate is the row itself.
        """
        s, located = self.structure, [self.structure.locate(p) for p in parts]
        for start in range(0, n, _CHUNK_ROWS):
            which = (start + np.arange(min(_CHUNK_ROWS, n - start))) % max(len(located), 1)
            widths = s.total + np.array([dim for _, _, dim in located] or [0])[which]
            starts = np.cumsum(widths) - widths
            raw = gen.uniform(self.lo, self.hi, size=int(widths.sum()))
            points = self._project(raw[starts[:, None] + np.arange(s.total)], range(s.n_blocks))
            cands = points.copy() if located else points
            for k, (part, where, dim) in enumerate(located):
                rows = np.flatnonzero(which == k)[:, None]
                xi = self._project(raw[starts[rows] + s.total + np.arange(dim)], s.part_blocks(part))
                cands[rows, np.arange(s.total)[where]] = xi
            yield from zip(points, cands)

    def _project(self, rows: np.ndarray, blocks) -> np.ndarray:
        # Project in place the runs of columns that hold ``blocks``, one after another.
        cols = np.cumsum([0] + [self.structure.dims[i] for i in blocks])
        for i, a, b in zip(blocks, cols, cols[1:]):
            rows[:, a:b] = self.feasible[i].project(rows[:, a:b])
        return rows


def _default_parts(structure: BlockStructure, parts) -> list[BlockIndex]:
    if parts is None:
        return list(range(structure.n_blocks))
    return [structure.locate(p)[0] for p in parts]


def _part_label(part: BlockIndex):
    return part if isinstance(part, int) else list(part)


def check_tightness(u, f: ObjectiveOracle, samples: Sequence[Point],
                    parts: Sequence[BlockIndex] | None = None) -> CheckReport:
    """u must equal f at the anchor: |u(y_i, y) - f(y)| <= 1e-10 * (1 + |f(y)|).

    ``worst_gap`` is the largest relative mismatch seen.
    """
    if not samples:
        raise InvalidArgumentError("need at least one sample point")
    parts = _default_parts(samples[0].structure, parts)
    worst = 0.0
    witnesses: list[dict] = []
    n = 0
    n_viol = 0
    for s_idx, y in enumerate(samples):
        fy = f.value_at(y.values)
        for part in parts:
            n += 1
            uy = float(u.value(part, y.part(part), y))
            gap = abs(uy - fy) / (1.0 + abs(fy))
            worst = max(worst, gap)
            if gap > _TIGHT_TOL:
                n_viol += 1
                if len(witnesses) < _MAX_WITNESSES:
                    witnesses.append({"sample": s_idx, "part": _part_label(part),
                                      "u": uy, "f": fy, "relative_gap": gap})
    return CheckReport("tightness", n, n_viol, worst, witnesses)


def check_upper_bound(u, f: ObjectiveOracle, space: SampleSpace, rng: RngStream,
                      n_samples: int = 1000,
                      parts: Sequence[BlockIndex] | None = None) -> CheckReport:
    """u(x_i, y) must dominate f with x_i substituted in, up to -1e-9 slack.

    ``worst_gap`` is the smallest signed slack u - f seen (negative = bad).
    """
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    parts = _default_parts(space.structure, parts)
    rows = space.sample_rows(rng.generator(), n_samples, parts)
    worst = np.inf
    witnesses: list[dict] = []
    n_viol = 0
    for s_idx, (y_row, x_row) in enumerate(rows):
        part = parts[s_idx % len(parts)]
        y = Point._adopt(y_row, space.structure)
        uval = float(u.value(part, x_row[space.structure.locate(part)[1]], y))
        fval = f.value_at(x_row)
        slack = uval - fval
        worst = min(worst, slack)
        if slack < -_BOUND_TOL:
            n_viol += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append({"sample": s_idx, "part": _part_label(part),
                                  "u": uval, "f": fval, "slack": slack})
    return CheckReport("upper_bound", n_samples, n_viol, float(worst), witnesses)


def check_first_order_match(u, f: ObjectiveOracle, samples: Sequence[Point],
                            space: SampleSpace, rng: RngStream,
                            parts: Sequence[BlockIndex] | None = None) -> CheckReport:
    """Directional derivatives of u and f must agree at the anchor.

    Directions are drawn toward another feasible sample, so y + h d stays
    feasible for convex sets. Central difference quotients (evaluations stay
    within an h-ball of the anchor) are compared at h = 1e-5, 1e-4, 1e-3;
    the violation test, a relative mismatch above 1e-4, uses the finest
    step. ``worst_gap`` is the largest relative mismatch at the finest step.
    """
    if not samples:
        raise InvalidArgumentError("need at least one sample point")
    parts = _default_parts(space.structure, parts)
    directions = space.sample_rows(rng.generator(), len(samples) * len(parts))
    worst = 0.0
    witnesses: list[dict] = []
    n = 0
    n_viol = 0
    for s_idx, y in enumerate(samples):
        for part in parts:
            idx = y.structure.locate(part)[1]
            d_part = next(directions)[0][idx] - y.part(part)
            nrm = float(np.linalg.norm(d_part))
            if nrm < 1e-2:
                continue  # degenerate draw, direction too short to trust
            d_part = d_part / nrm
            n += 1
            step_full = np.zeros(y.dim)
            quotients = []
            for h in _STEPS:
                du = (float(u.value(part, y.part(part) + h * d_part, y))
                      - float(u.value(part, y.part(part) - h * d_part, y))) / (2 * h)
                step_full[idx] = h * d_part
                df = (f.value_at(y.values + step_full)
                      - f.value_at(y.values - step_full)) / (2 * h)
                quotients.append((h, du, df))
            h_fine, du_fine, df_fine = quotients[0]
            gap = abs(du_fine - df_fine) / (1.0 + max(abs(du_fine), abs(df_fine)))
            worst = max(worst, gap)
            if gap > _SLOPE_TOL:
                n_viol += 1
                if len(witnesses) < _MAX_WITNESSES:
                    witnesses.append({
                        "sample": s_idx, "part": _part_label(part),
                        "relative_gap": gap,
                        "quotients": [
                            {"h": h, "u_quotient": du, "f_quotient": df}
                            for h, du, df in quotients],
                    })
    if n == 0:
        raise InvalidArgumentError("no sampled direction was long enough to test")
    return CheckReport("first_order_match", n, n_viol, worst, witnesses)


def check_composite_smooth(u0, f0: ObjectiveOracle, space: SampleSpace,
                           rng: RngStream, samples: Sequence[Point],
                           n_samples: int = 1000,
                           parts: Sequence[BlockIndex] | None = None) -> list[CheckReport]:
    """Checks for surrogates of the form u = u0 + nonsmooth part.

    When the shared nonsmooth term cancels, tightness and domination of the
    smooth pieces (u0 vs f0) imply the full surrogate contract, including
    the directional-derivative match at anchors where only the smooth part
    is differentiable. Returns the two smooth-part reports.
    """
    r1 = check_tightness(u0, f0, samples, parts=parts)
    r1.check = "composite_smooth_tightness"
    r2 = check_upper_bound(u0, f0, space, rng, n_samples=n_samples, parts=parts)
    r2.check = "composite_smooth_upper_bound"
    return [r1, r2]


def audit_trace(trace: Trace, slack: float = 1e-12) -> CheckReport:
    """Monotone-descent audit of a recorded run.

    Checks f never rises by more than slack * (1 + |previous f|) along the
    chain, starting from the initial objective when it is recorded.
    ``worst_gap`` is the largest relative uptick.
    """
    objectives = [r.objective for r in trace.records]
    iterations = [r.iteration for r in trace.records]
    if np.isfinite(trace.initial_objective):
        objectives = [trace.initial_objective] + objectives
        iterations = [0] + iterations
    worst = 0.0
    witnesses: list[dict] = []
    n_viol = 0
    for k in range(1, len(objectives)):
        prev, cur = objectives[k - 1], objectives[k]
        scale = 1.0 + abs(prev)
        uptick = (cur - prev) / scale
        worst = max(worst, uptick)
        if cur > prev + slack * scale:
            n_viol += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append({"iteration": iterations[k], "previous": prev,
                                  "current": cur, "relative_uptick": uptick})
    n = max(len(objectives) - 1, 0)
    return CheckReport("monotone_descent", n, n_viol, worst, witnesses)
