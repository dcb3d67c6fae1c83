"""Tests for the sampling checks and the trace auditor."""

import numpy as np
import pytest

from bsumkit import verify
from bsumkit.core import (
    InvalidArgumentError,
    ObjectiveOracle,
    Point,
    RngStream,
    Trace,
    TraceRecord,
    ball,
    box,
    make_block_structure,
    nonnegative,
    simplex,
    unconstrained,
)
from bsumkit.problems import QuadraticProblem, lasso_problem, separable_quartic_dc
from bsumkit.verify import (
    SampleSpace,
    audit_trace,
    check_composite_smooth,
    check_first_order_match,
    check_tightness,
    check_upper_bound,
)


class ShiftedSurrogate:
    """Wraps a surrogate and adds a constant offset (a broken tightness case)."""

    def __init__(self, inner, offset):
        self.inner = inner
        self.offset = offset

    def values(self, part, xi_rows, anchor_rows, structure, iteration=1):
        return self.inner.values(part, xi_rows, anchor_rows, structure, iteration) + self.offset


class SlopedSurrogate:
    """Adds a spurious linear term sum(xi - y_i) to a correct surrogate."""

    def __init__(self, inner):
        self.inner = inner

    def values(self, part, xi_rows, anchor_rows, structure, iteration=1):
        tilt = np.sum(xi_rows - anchor_rows[:, structure.locate(part)[1]], axis=-1)
        return self.inner.values(part, xi_rows, anchor_rows, structure, iteration) + tilt


def scalar_setup():
    prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
    structure = make_block_structure([1])
    space = SampleSpace.boxed(structure)
    return prob.objective(), prob.proximal_surrogate(c=1.0), structure, space


def sample_grid(structure, values):
    return [Point(np.array([float(v)]), structure) for v in values]


class TestCheckTightness:

    def test_proximal_surrogate_zero_gap(self):
        f, u, structure, _ = scalar_setup()
        report = check_tightness(u, f, sample_grid(structure, [-2.0, 0.0, 1.5]))
        assert report.passed
        assert report.worst_gap == 0.0

    def test_dc_linearization_tight_at_anchor(self):
        f, dc, _ = separable_quartic_dc([1])
        structure = make_block_structure([1])
        report = check_tightness(dc, f, sample_grid(structure, [-1.0, 0.5, 2.0]))
        assert report.passed

    def test_constant_shift_flagged_with_unit_gap(self):
        f, u, structure, _ = scalar_setup()
        broken = ShiftedSurrogate(u, 1.0)
        report = check_tightness(broken, f, sample_grid(structure, [0.0]))
        assert not report.passed
        np.testing.assert_allclose(report.worst_gap, 1.0, rtol=1e-12)
        assert report.witnesses[0]["relative_gap"] == report.worst_gap

    def test_empty_samples_rejected(self):
        f, u, _, _ = scalar_setup()
        with pytest.raises(InvalidArgumentError):
            check_tightness(u, f, [])


class TestCheckUpperBound:

    def test_proximal_surrogate_nonnegative_slack(self):
        f, u, _, space = scalar_setup()
        report = check_upper_bound(u, f, space, RngStream(0), n_samples=500)
        assert report.passed
        assert report.worst_gap >= 0.0

    def test_undershooting_surrogate_flagged(self):
        f, u, _, space = scalar_setup()
        broken = ShiftedSurrogate(u, -1e-3)
        report = check_upper_bound(broken, f, space, RngStream(0), n_samples=200)
        assert not report.passed
        assert report.worst_gap < 0.0

    def test_boundary_tight_case_passes(self):
        """gamma = 1/beta on a pure quadratic: slack is identically zero."""
        from bsumkit.surrogates import LipschitzQuadraticSurrogate
        beta = 2.0
        s = LipschitzQuadraticSurrogate(
            smooth=ObjectiveOracle(value=lambda v: 0.5 * beta * np.vecdot(v, v),
                                   gradient=lambda v: beta * v),
            nonsmooth_total=lambda v: 0.0,
            prox=lambda part, v, g: v,
            beta=beta, gamma=1.0 / beta)
        f = ObjectiveOracle(value=lambda v: 0.5 * beta * np.vecdot(v, v))
        space = SampleSpace.boxed(make_block_structure([1]))
        report = check_upper_bound(s, f, space, RngStream(3), n_samples=300)
        assert report.passed
        np.testing.assert_allclose(report.worst_gap, 0.0, atol=1e-12)

    def test_same_seed_same_report(self):
        f, u, _, space = scalar_setup()
        r1 = check_upper_bound(u, f, space, RngStream(7), n_samples=100)
        r2 = check_upper_bound(u, f, space, RngStream(7), n_samples=100)
        assert r1.to_json() == r2.to_json()


class TestCheckFirstOrderMatch:

    def test_proximal_surrogate_matches(self):
        f, u, structure, space = scalar_setup()
        report = check_first_order_match(
            u, f, sample_grid(structure, [-1.0, 0.5, 2.0]), space, RngStream(1))
        assert report.passed

    def test_dc_linearization_matches_on_quartic(self):
        f, dc, _ = separable_quartic_dc([1])
        structure = make_block_structure([1])
        space = SampleSpace.boxed(structure, lo=-3.0, hi=3.0)
        report = check_first_order_match(
            dc, f, sample_grid(structure, [-2.0, 1.0, 2.5]), space, RngStream(2))
        assert report.passed

    def test_spurious_slope_flagged(self):
        f, u, structure, space = scalar_setup()
        broken = SlopedSurrogate(u)
        report = check_first_order_match(
            broken, f, sample_grid(structure, [0.5]), space, RngStream(3))
        assert not report.passed
        assert report.worst_gap > 0.1

    def test_space_too_narrow_for_any_direction_rejected(self):
        """No draw passes the length filter, so nothing was tested: not a PASS."""
        f, u, structure, _ = scalar_setup()
        narrow = SampleSpace.boxed(structure, lo=0.0, hi=1e-3)
        with pytest.raises(InvalidArgumentError, match="direction"):
            check_first_order_match(u, f, narrow.sample_points(RngStream(1).generator(), 5),
                                    narrow, RngStream(0))


class TestCompositeAndQuasiconvexity:

    def test_composite_smooth_reduction_on_lasso(self):
        _, s, _ = lasso_problem(target=[1.0], weight=0.5, gamma=1.0)
        u0, f0 = s.smooth_part()
        structure = make_block_structure([1])
        space = SampleSpace.boxed(structure)
        samples = sample_grid(structure, [-2.0, 0.0, 3.0])
        reports = check_composite_smooth(u0, f0, space, RngStream(4), samples)
        assert [r.check for r in reports] == [
            "composite_smooth_tightness", "composite_smooth_upper_bound"]
        assert all(r.passed for r in reports)


class TestAuditTrace:

    def make_trace(self, objectives, initial=None):
        t = Trace(initial_objective=(initial if initial is not None else float("nan")))
        for k, v in enumerate(objectives, start=1):
            t.append(TraceRecord(iteration=k, block=0, objective=float(v)))
        return t

    def test_monotone_trace_passes(self):
        report = audit_trace(self.make_trace([3.0, 2.0, 2.0, 1.5], initial=4.0))
        assert report.passed
        assert report.check == "monotone_descent"

    def test_single_uptick_flagged_at_its_iteration(self):
        trace = self.make_trace([1.0, 0.5, 0.5 + 1e-6], initial=2.0)
        report = audit_trace(trace, slack=1e-12)
        assert report.n_violations == 1
        assert report.witnesses[0]["iteration"] == 3
        np.testing.assert_allclose(report.worst_gap, 1e-6 / 1.5, rtol=1e-9)

    def test_uptick_within_slack_passes(self):
        trace = self.make_trace([1.0, 0.5, 0.5 + 1e-14], initial=2.0)
        assert audit_trace(trace, slack=1e-12).passed

    def test_empty_trace_passes_vacuously(self):
        report = audit_trace(Trace())
        assert report.passed
        assert report.n_samples == 0

    def test_initial_objective_participates(self):
        trace = self.make_trace([5.0], initial=1.0)
        report = audit_trace(trace)
        assert report.n_violations == 1
        assert report.witnesses[0]["iteration"] == 1

    @pytest.mark.parametrize("slack", [np.nan, np.inf, -1e-12, "0"])
    def test_slack_must_be_finite_and_nonnegative(self, slack):
        """A NaN or infinite slack fails every comparison, so a rising trace
        passed the audit; such a slack is refused."""
        with pytest.raises(InvalidArgumentError, match="slack"):
            audit_trace(self.make_trace([5.0], initial=0.0), slack=slack)


class TestSampleSpace:

    def test_samples_respect_box_and_feasibility(self):
        structure = make_block_structure([2, 1])
        space = SampleSpace.boxed(structure, lo=-1.0, hi=1.0,
                                  feasible=[nonnegative(), nonnegative()])
        gen = RngStream(8).generator()
        for _ in range(50):
            p = space.sample_points(gen, 1)[0]
            assert p.values.min() >= 0.0
            assert p.values.max() <= 1.0

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308),
                                        (np.nan, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_bounds_need_a_finite_positive_width(self, lo, hi):
        with pytest.raises(InvalidArgumentError):
            SampleSpace.boxed(make_block_structure([2]), lo=lo, hi=hi)

    def test_feasible_count_must_match_blocks(self):
        structure = make_block_structure([1, 1])
        with pytest.raises(InvalidArgumentError):
            SampleSpace(structure, (nonnegative(),), -1.0, 1.0)

    def test_report_json_shape(self):
        f, u, structure, _ = scalar_setup()
        report = check_tightness(u, f, sample_grid(structure, [0.0, 1.0]))
        blob = report.to_json()
        assert {"check", "n_samples", "n_violations", "worst_gap",
                "witnesses"} <= set(blob)


# The per-sample sampler that the array sampler replaced, kept as the reference
# for its stream layout: each point, then (for the upper-bound check) its part,
# each drawn and projected block by block on its own.

def reference_point(space, gen):
    raw = gen.uniform(space.lo, space.hi, size=space.structure.total)
    for o, d, feasible in zip(space.structure.offsets, space.structure.dims, space.feasible):
        raw[o:o + d] = feasible.project(raw[o:o + d])
    return raw


def reference_part(space, gen, part):
    return np.concatenate([
        space.feasible[i].project(gen.uniform(space.lo, space.hi, size=space.structure.dims[i]))
        for i in space.structure.part_blocks(part)])


def reference_upper_bound_rows(space, gen, n, parts):
    points, cands = [], []
    for s_idx in range(n):
        part = parts[s_idx % len(parts)]
        y = reference_point(space, gen)
        xi = reference_part(space, gen, part)
        points.append(y)
        cands.append(Point(y, space.structure).with_part(part, xi).values)
    return np.array(points), np.array(cands)


def stacked(chunks):
    points, cands = zip(*chunks)
    return np.concatenate(points), np.concatenate(cands)


MIXED_SPACES = {
    "box_simplex": (box([-1.0], [2.0]), simplex(floor=0.05)),
    "nonnegative_ball": (nonnegative(), ball(1.5)),
    "unconstrained": (unconstrained(), unconstrained()),
}


class TestArraySampler:
    """The array sampler gives the bits of the per-sample reference loop."""

    N_ACROSS_CHUNKS = verify._CHUNK_ROWS + 50

    @pytest.mark.parametrize("sets", MIXED_SPACES)
    def test_upper_bound_layout_across_a_chunk_boundary(self, sets):
        structure = make_block_structure([1, 2])
        space = SampleSpace(structure, MIXED_SPACES[sets], -3.0, 3.0)
        parts = [0, 1, (0, 1)]
        assert verify._CHUNK_ROWS % 3 == 1  # so the second chunk starts mid-cycle
        n = self.N_ACROSS_CHUNKS
        want = reference_upper_bound_rows(space, RngStream(5).generator(), n, parts)
        got = stacked(space.sample_rows(RngStream(5).generator(), n, parts))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_upper_bound_check_uses_that_layout(self):
        """Every (part, xi, anchor) row the check hands u matches the reference."""
        structure = make_block_structure([1, 2])
        space = SampleSpace(structure, MIXED_SPACES["box_simplex"], -3.0, 3.0)
        parts = [0, 1, (0, 1)]
        seen = []

        class Recorder:
            def values(self, part, xi_rows, anchor_rows, structure, iteration=1):
                seen.extend((part, xi, y) for xi, y in zip(xi_rows.copy(), anchor_rows.copy()))
                return np.zeros(len(xi_rows))

        f = ObjectiveOracle(value=lambda v: np.full(v.shape[:-1], -1.0))
        check_upper_bound(Recorder(), f, space, RngStream(9), n_samples=40, parts=parts)
        points, cands = reference_upper_bound_rows(space, RngStream(9).generator(), 40, parts)
        # One chunk, handed over part by part, each part's samples in order.
        order = [s_idx for k in range(3) for s_idx in range(k, 40, 3)]
        assert len(seen) == len(order)
        for s_idx, (part, xi, anchor) in zip(order, seen):
            assert part == parts[s_idx % 3]
            assert np.array_equal(anchor, points[s_idx])
            assert np.array_equal(xi, cands[s_idx][structure.locate(part)[1]])

    def test_first_order_directions(self):
        # check_first_order_match draws one point per (anchor, part), anchors outermost.
        structure = make_block_structure([2, 1, 3])
        space = SampleSpace(structure, (simplex(), box(-1.0, 1.0), ball(2.0)), -4.0, 4.0)
        n = 3 * (verify._CHUNK_ROWS // 3 + 7)
        gen = RngStream(11).generator()
        want = np.array([reference_point(space, gen) for _ in range(n)])
        got, same = stacked(space.sample_rows(RngStream(11).generator(), n))
        assert np.array_equal(got, want)
        assert np.array_equal(same, got)

    def test_anchors(self):
        structure = make_block_structure([2, 2, 2])
        space = SampleSpace(structure, (simplex(floor=0.05), box([-4.0, -4.0], [4.0, 4.0]),
                                        box([0.3, 0.3], [3.0, 3.0])), -4.0, 4.0)
        gen = RngStream(12).generator()
        want = [reference_point(space, gen) for _ in range(60)]
        got = space.sample_points(RngStream(12).generator(), 60)
        assert all(p.structure is structure for p in got)
        assert np.array_equal(np.array([p.values for p in got]), np.array(want))
        one = space.sample_points(RngStream(12).generator(), 1)[0]
        assert np.array_equal(one.values, want[0])
        assert not one.values.flags.writeable
