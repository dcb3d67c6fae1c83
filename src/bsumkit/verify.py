"""Numeric checks for the surrogate contracts and solver traces.

Sampling can only falsify, never prove: each check draws points from a
``SampleSpace`` and reports every violation with a witness. Reports are
plain data and serialize to JSON. Given the same ``RngStream`` key, every
check is bit-reproducible.

A check draws its samples' uniforms in one generator call per chunk of
``_CHUNK_ROWS`` samples, laid out as if each sample were drawn on its own,
and projects each chunk block by block, so chunking never changes a report.
It evaluates f and u on stacks of at most ``_CHUNK_ROWS`` rows: f through
``ObjectiveOracle.values_at`` and u through the stacked ``values(part,
xi_rows, anchor_rows, structure)`` of ``surrogates``. Either one's
non-finite value raises ``NumericFailure``, since a NaN gap fails no test.
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
    NumericFailure,
    ObjectiveOracle,
    Point,
    RngStream,
    Trace,
    _index,
    _real,
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
_CHUNK_ROWS = 256  # samples drawn, projected and evaluated together; bounds a check's memory


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
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 0.0 < self.hi - self.lo < np.inf:
            raise InvalidArgumentError("need lo < hi with a finite width hi - lo")

    @staticmethod
    def boxed(structure: BlockStructure, lo: float = -5.0, hi: float = 5.0,
              feasible: Sequence[FeasibleSetOracle] | None = None) -> "SampleSpace":
        if feasible is None:
            feasible = tuple(unconstrained() for _ in range(structure.n_blocks))
        return SampleSpace(structure, tuple(feasible), lo, hi)

    def sample_points(self, gen: np.random.Generator, n: int) -> list[Point]:
        """``n`` feasible points, drawn as ``n`` one-point draws would be."""
        return [Point._adopt(y, self.structure)
                for points, _ in self.sample_rows(gen, n) for y in points]

    def sample_rows(self, gen: np.random.Generator, n: int, parts: Sequence[BlockIndex] = ()):
        """Yield ``n`` feasible points as row stacks of at most ``_CHUNK_ROWS``
        rows, each stack with the stack of its candidates.

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
            yield points, cands

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


def _eval_rows(fn, *stacks: np.ndarray) -> np.ndarray:
    # fn over the stacks' rows, at most _CHUNK_ROWS rows per call, joined.
    return np.concatenate([np.asarray(fn(*(s[a:a + _CHUNK_ROWS] for s in stacks)), dtype=np.float64)
                           for a in range(0, len(stacks[0]), _CHUNK_ROWS)] or [np.empty(0)])


def _u_rows(u, parts: Sequence[BlockIndex], which: np.ndarray, cands: np.ndarray,
            anchors: np.ndarray, structure: BlockStructure) -> np.ndarray:
    # u at each row r's anchor with part parts[which[r]] taken from cands[r],
    # one stacked call per part and chunk; a non-finite u raises.
    out = np.empty(len(anchors))
    for k, part in enumerate(parts):
        rows = which == k
        out[rows] = _eval_rows(lambda xi, y: u.values(part, xi, y, structure),
                               cands[rows][:, structure.locate(part)[1]], anchors[rows])
    if not np.all(np.isfinite(out)):
        raise NumericFailure(
            f"surrogate returned non-finite value {float(out[~np.isfinite(out)][0])!r}")
    return out


def check_tightness(u, f: ObjectiveOracle, samples: Sequence[Point],
                    parts: Sequence[BlockIndex] | None = None) -> CheckReport:
    """u must equal f at the anchor: |u(y_i, y) - f(y)| <= 1e-10 * (1 + |f(y)|).

    ``worst_gap`` is the largest relative mismatch seen.
    """
    if not samples:
        raise InvalidArgumentError("need at least one sample point")
    structure = samples[0].structure
    parts = _default_parts(structure, parts)
    y = np.array([p.values for p in samples])
    fy = _eval_rows(f.values_at, y)[:, None]
    anchors = np.repeat(y, len(parts), axis=0)  # each sample once per part
    which = np.tile(np.arange(len(parts)), len(y))
    uy = _u_rows(u, parts, which, anchors, anchors, structure).reshape(len(y), len(parts))
    gaps = np.abs(uy - fy) / (1.0 + np.abs(fy))
    flagged = np.argwhere(gaps > _TIGHT_TOL)
    witnesses = [{"sample": int(i), "part": _part_label(parts[k]), "u": float(uy[i, k]),
                  "f": float(fy[i, 0]), "relative_gap": float(gaps[i, k])}
                 for i, k in flagged[:_MAX_WITNESSES]]
    return CheckReport("tightness", gaps.size, len(flagged),
                       float(np.fmax.reduce(gaps.ravel(), initial=0.0)), witnesses)


def check_upper_bound(u, f: ObjectiveOracle, space: SampleSpace, rng: RngStream,
                      n_samples: int = 1000,
                      parts: Sequence[BlockIndex] | None = None) -> CheckReport:
    """u(x_i, y) must dominate f with x_i substituted in, up to -1e-9 slack.

    ``worst_gap`` is the smallest signed slack u - f seen (negative = bad).
    """
    n_samples = _index(n_samples, "n_samples", least=1)
    s = space.structure
    parts = _default_parts(s, parts)
    worst, n_viol, witnesses, start = np.inf, 0, [], 0
    for points, cands in space.sample_rows(rng.generator(), n_samples, parts):
        which = (start + np.arange(len(points))) % len(parts)
        uval = _u_rows(u, parts, which, cands, points, s)
        fval = _eval_rows(f.values_at, cands)
        slack = uval - fval
        worst = np.fmin.reduce(slack, initial=worst)
        flagged = np.flatnonzero(slack < -_BOUND_TOL)
        n_viol += len(flagged)
        witnesses += [{"sample": start + int(r), "part": _part_label(parts[which[r]]),
                       "u": float(uval[r]), "f": float(fval[r]), "slack": float(slack[r])}
                      for r in flagged[:_MAX_WITNESSES - len(witnesses)]]
        start += len(points)
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
    s = space.structure
    parts = _default_parts(s, parts)
    y = np.array([p.values for p in samples])
    draws = np.concatenate([d for d, _ in space.sample_rows(rng.generator(), len(y) * len(parts))])
    draws = draws.reshape(len(y), len(parts), s.total)  # anchors outermost
    steps = np.array(_STEPS)
    # The (u, f) difference quotient of each anchor, part and step.
    quotients = np.zeros((len(y), len(parts), len(steps), 2))
    tested = np.zeros((len(y), len(parts)), dtype=bool)
    for k, part in enumerate(parts):
        where = s.locate(part)[1]
        d = draws[:, k, where] - y[:, where]
        nrm = np.sqrt(np.vecdot(d, d))
        ok = tested[:, k] = ~(nrm < 1e-2)  # a shorter draw is too short to trust
        if not ok.any():
            continue
        moves = np.zeros((len(steps), ok.sum(), s.total))
        moves[:, :, where] = steps[:, None, None] * (d[ok] / nrm[ok, None])
        rows = np.concatenate([y[ok] + moves, y[ok] - moves]).reshape(-1, s.total)
        anchors = np.tile(y[ok], (2 * len(steps), 1))
        uv = _u_rows(u, [part], np.zeros(len(rows), dtype=int), rows, anchors,
                     s).reshape(2, len(steps), -1)
        fv = _eval_rows(f.values_at, rows).reshape(2, len(steps), -1)
        quotients[ok, k] = (np.stack([uv[0] - uv[1], fv[0] - fv[1]], axis=-1)
                            / (2 * steps)[:, None, None]).transpose(1, 0, 2)
    n = int(tested.sum())
    if n == 0:
        raise InvalidArgumentError("no sampled direction was long enough to test")
    du, df = quotients[:, :, 0, 0], quotients[:, :, 0, 1]
    gaps = np.abs(du - df) / (1.0 + np.maximum(np.abs(du), np.abs(df)))
    flagged = np.argwhere(tested & (gaps > _SLOPE_TOL))
    witnesses = [{"sample": int(i), "part": _part_label(parts[k]),
                  "relative_gap": float(gaps[i, k]),
                  "quotients": [{"h": h, "u_quotient": float(qu), "f_quotient": float(qf)}
                                for h, (qu, qf) in zip(_STEPS, quotients[i, k])]}
                 for i, k in flagged[:_MAX_WITNESSES]]
    return CheckReport("first_order_match", n, len(flagged),
                       float(np.fmax.reduce(gaps[tested], initial=0.0)), witnesses)


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
    slack = _real(slack, "slack", "nonnegative")
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
