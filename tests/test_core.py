"""Tests for block structures, points, feasible sets, traces, and RNG streams."""

import numpy as np
import pytest

from bsumkit.core import (
    BlockStructure,
    InvalidArgumentError,
    NumericFailure,
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


class TestBlockStructure:

    def test_prefix_sums(self):
        """dims [2, 3] => total 5, offsets [0, 2]."""
        s = make_block_structure([2, 3])
        assert s.total == 5
        assert tuple(s.offsets) == (0, 2)
        assert s.n_blocks == 2

    def test_single_block(self):
        s = make_block_structure([7])
        assert s.total == 7
        assert tuple(s.offsets) == (0,)
        assert s.n_blocks == 1

    def test_empty_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_block_structure([])

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_block_structure([2, 0, 3])

    @pytest.mark.parametrize("dims", [[2.7, 1], [2, True], [1.0], ["2"], [np.float64(3.0)]])
    def test_non_integer_dim_rejected(self, dims):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            make_block_structure(dims)

    def test_numpy_integer_dims_accepted(self):
        s = make_block_structure([np.int64(2), np.int32(3)])
        assert s.dims == (2, 3) and all(type(d) is int for d in s.dims)

    def test_block_slices(self):
        """One block locates to itself, a slice and its size; so does np.int64."""
        s = make_block_structure([2, 3, 1])
        assert s.locate(0) == (0, slice(0, 2), 2)
        assert s.locate(1) == (1, slice(2, 5), 3)
        assert s.locate(np.int64(2)) == (2, slice(5, 6), 1)
        assert type(s.locate(np.int64(2))[0]) is int

    def test_block_slice_out_of_range(self):
        s = make_block_structure([2, 3])
        for part in (2, -1, (0, 2), np.int64(5)):
            with pytest.raises(InvalidArgumentError):
                s.locate(part)

    def test_normalize_part(self):
        """A group canonicalizes to a sorted tuple; a one-block group to an int."""
        s = make_block_structure([1, 1, 1])
        assert s.locate((2, 0))[0] == (0, 2)
        assert s.locate([1, 0])[0] == (0, 1)
        assert s.locate((1,)) == (1, slice(1, 2), 1)
        assert s.part_blocks(2) == (2,)
        assert s.part_blocks([2, 0]) == (0, 2)

    def test_normalize_part_rejects_duplicates(self):
        """Duplicates, an empty group and any index that is not an integer are refused."""
        s = make_block_structure([1, 1, 1])
        with pytest.raises(InvalidArgumentError):
            s.locate((1, 1))
        with pytest.raises(InvalidArgumentError):
            s.locate(())
        x = Point(np.arange(5.0), make_block_structure([2, 3]))
        for part in ((0.7,), (1.9, 0.2), True, 1.0, (True, 0), "1", b"\x01"):
            with pytest.raises(InvalidArgumentError):
                x.part(part)
            with pytest.raises(InvalidArgumentError):
                x.with_part(part, [9, 9, 9])

    def test_part_indices_group(self):
        """A group locates to an index array in block order and its total size."""
        s = make_block_structure([2, 3, 1])
        part, where, dim = s.locate((2, 0))
        assert part == (0, 2) and dim == 3
        assert isinstance(where, np.ndarray)
        np.testing.assert_array_equal(where, [0, 1, 5])


class TestPoint:

    def test_block_views_partition(self):
        """Writing block i leaves block j != i untouched."""
        s = make_block_structure([2, 3])
        p = Point(np.arange(5.0), s)
        q = p.with_part(0, np.array([9.0, 9.0]))
        np.testing.assert_array_equal(q.block(0), [9.0, 9.0])
        np.testing.assert_array_equal(q.block(1), p.block(1))
        np.testing.assert_array_equal(p.block(0), [0.0, 1.0])

    def test_values_are_read_only(self):
        s = make_block_structure([3])
        p = Point(np.zeros(3), s)
        with pytest.raises(ValueError):
            p.values[0] = 1.0

    def test_group_part_roundtrip(self):
        s = make_block_structure([1, 2, 1])
        p = Point(np.array([1.0, 2.0, 3.0, 4.0]), s)
        vals = p.part((0, 2))
        np.testing.assert_array_equal(vals, [1.0, 4.0])
        q = p.with_part((0, 2), np.array([-1.0, -4.0]))
        np.testing.assert_array_equal(q.values, [-1.0, 2.0, 3.0, -4.0])

    def test_wrong_length_rejected(self):
        s = make_block_structure([2])
        p = Point(np.zeros(2), s)
        with pytest.raises(InvalidArgumentError):
            p.with_part(0, np.zeros(3))

    def test_length_mismatch_at_construction(self):
        s = make_block_structure([2, 3])
        with pytest.raises(InvalidArgumentError):
            Point(np.zeros(4), s)


class TestFeasibleSets:

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6) * 4.0
        for oracle in (unconstrained(), box(-1.0, 1.0), nonnegative(),
                       ball(2.0), simplex()):
            p1 = oracle.project(x)
            p2 = oracle.project(p1)
            np.testing.assert_allclose(p2, p1, atol=1e-12)
        # Each projection satisfies its set's defining inequalities.
        assert np.all(np.isfinite(unconstrained().project(x)))
        assert np.all(np.abs(box(-1.0, 1.0).project(x)) <= 1.0)
        assert np.all(nonnegative().project(x) >= 0.0)
        assert np.linalg.norm(ball(2.0).project(x)) <= 2.0 + 1e-10
        p = simplex().project(x)
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-10 * p.size

    def test_box_projection(self):
        np.testing.assert_array_equal(
            box(-1.0, 1.0).project(np.array([-3.0, 0.5, 2.0])),
            [-1.0, 0.5, 1.0])

    def test_ball_projection_scales(self):
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(ball(1.0).project(x), [0.6, 0.8])

    def test_simplex_projection_sums_to_one(self):
        p = simplex().project(np.array([0.9, 0.8, -0.5]))
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_simplex_floor(self):
        oracle = simplex(floor=0.1)
        p = oracle.project(np.array([5.0, -5.0, 0.0]))
        assert p.min() >= 0.1 - 1e-12
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 40])
    def test_row_stack_projects_each_row_alone(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.uniform(-5.0, 5.0, size=(300, dim)) * rng.uniform(0.01, 3.0, size=(300, 1))
        rows[:3] = np.array([[0.0], [1e-300], [0.5]])  # the origin, a tiny row, a row of ties
        oracles = [unconstrained(), box(-1.0, 1.0), box(np.linspace(-2, 0, dim), 1.5),
                   nonnegative(), ball(2.0), ball(1e-3), simplex()]
        if dim * 0.05 < 1:
            oracles.append(simplex(floor=0.05))
        for oracle in oracles:
            stacked = oracle.project(rows)
            assert np.array_equal(stacked, np.array([oracle.project(r) for r in rows]))
            # A column slice of a wider stack is a strided view; the bits hold there too.
            wide = np.concatenate([rows, rows], axis=1)[:, :dim]
            assert np.array_equal(oracle.project(wide), stacked)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9, 200])
    def test_one_vector_keeps_the_scalar_formulas(self, dim):
        # The per-vector ball and simplex projections before they took row stacks.
        def ball_ref(x, radius):
            nrm = float(np.linalg.norm(x))
            return x if nrm <= radius else x * (radius / nrm)

        def simplex_ref(x):
            u = np.sort(x)[::-1]
            css = np.cumsum(u)
            cond = u + (1.0 - css) / np.arange(1, x.size + 1) > 0
            rho = int(np.nonzero(cond)[0][-1])
            return np.maximum(x - (css[rho] - 1.0) / (rho + 1), 0.0)

        rng = np.random.default_rng(100 + dim)
        for x in rng.normal(size=(200, dim)) * rng.uniform(0.01, 5.0, size=(200, 1)):
            assert np.array_equal(ball(1.5).project(x), ball_ref(x, 1.5))
            assert np.array_equal(simplex().project(x), simplex_ref(x))

    def test_simplex_rejects_non_finite_input(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.array([0.2, bad, 0.5])
            with pytest.raises(NumericFailure):
                simplex().project(x)
            with pytest.raises(NumericFailure):
                simplex(floor=0.1).project(np.stack([np.full(3, 0.3), x]))

    def test_simplex_rejects_a_row_lost_to_rounding(self):
        # 1e20 + (1 - 1e20) rounds to 0, so no coordinate passes the support test.
        for x in (np.array([1e20, 0.0, 0.0]), np.array([[0.2, 0.3, 0.5], [0.0, -1e20, 1e20]])):
            with pytest.raises(NumericFailure):
                simplex().project(x)


class TestObjectiveOracle:

    def test_value_and_gradient(self):
        f = ObjectiveOracle(value=lambda v: float(v @ v),
                            gradient=lambda v: 2.0 * v)
        x = np.array([1.0, -2.0])
        assert f.value_at(x) == 5.0
        np.testing.assert_array_equal(f.gradient_at(x), [2.0, -4.0])

    def test_missing_gradient(self):
        f = ObjectiveOracle(value=lambda v: 0.0)
        with pytest.raises(InvalidArgumentError):
            f.gradient_at(np.zeros(1))

    def test_nonfinite_value_raises(self):
        f = ObjectiveOracle(value=lambda v: float("nan"))
        with pytest.raises(NumericFailure):
            f.value_at(np.zeros(1))

    def test_stacked_and_per_row_forms_agree(self):
        """The stacked entry points call the one callable on the whole stack,
        and each row has the bits of the one-point call."""
        rows = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 0.0]])
        f = ObjectiveOracle(value=lambda v: np.vecdot(v, v), gradient=lambda v: 2.0 * v)
        np.testing.assert_array_equal(f.values_at(rows), [5.0, 9.25, 0.0])
        np.testing.assert_array_equal(f.gradients_at(rows), 2.0 * rows)
        np.testing.assert_array_equal(f.values_at(rows), [f.value_at(r) for r in rows])
        np.testing.assert_array_equal(f.gradients_at(rows), [f.gradient_at(r) for r in rows])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_stacked_value_raises(self, bad):
        f = ObjectiveOracle(value=lambda v: np.where(v[..., 0] > 0, bad, 1.0),
                            gradient=lambda v: np.where(v > 0, bad, v))
        with pytest.raises(NumericFailure, match=f"non-finite value {float(bad)!r}"):
            f.values_at(np.array([[-1.0], [1.0]]))
        with pytest.raises(NumericFailure):
            f.gradients_at(np.array([[-1.0], [1.0]]))

    def test_stacked_forms_give_one_result_per_row(self):
        f = ObjectiveOracle(value=lambda v: np.zeros(len(v) + 1), gradient=lambda v: v[:, :1])
        with pytest.raises(InvalidArgumentError):
            f.values_at(np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError):
            f.gradients_at(np.zeros((2, 2)))


class TestTrace:

    def test_append_requires_increasing_iterations(self):
        t = Trace()
        t.append(TraceRecord(iteration=1, block=0, objective=3.0))
        t.append(TraceRecord(iteration=2, block=1, objective=2.0))
        with pytest.raises(InvalidArgumentError):
            t.append(TraceRecord(iteration=2, block=0, objective=1.0))

    def test_objectives_and_final(self):
        t = Trace(initial_objective=4.0)
        t.append(TraceRecord(iteration=1, block=0, objective=3.0))
        t.append(TraceRecord(iteration=2, block=0, objective=1.0))
        np.testing.assert_array_equal(t.objectives(), [3.0, 1.0])
        assert t.final_objective == 1.0
        assert t.n_iterations == 2

    def test_empty_trace_final_is_initial(self):
        t = Trace(initial_objective=7.0)
        assert t.final_objective == 7.0
        assert t.n_iterations == 0


class TestRngStream:

    def test_same_seed_same_stream(self):
        a = RngStream(42).generator().normal(size=8)
        b = RngStream(42).generator().normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).generator().normal(size=8)
        b = RngStream(2).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_substreams_independent_and_reproducible(self):
        root = RngStream(7)
        a1 = root.substream(3).generator().normal(size=4)
        a2 = RngStream(7).substream(3).generator().normal(size=4)
        b = root.substream(4).generator().normal(size=4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RngStream(-1)
        with pytest.raises(InvalidArgumentError):
            RngStream(0).substream(-2)

    @pytest.mark.parametrize("build", [
        lambda: RngStream(1.9), lambda: RngStream(True), lambda: RngStream("3"),
        lambda: RngStream(0, key=(1.5,)), lambda: RngStream(0, key=(False,)),
        lambda: RngStream(0).substream(2.0), lambda: RngStream(0).substream(True),
    ], ids=["float_seed", "bool_seed", "str_seed", "float_key", "bool_key",
            "float_substream", "bool_substream"])
    def test_non_integer_seed_key_and_substream_rejected(self, build):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            build()

    @pytest.mark.parametrize("key", [5, np.int64(5), 2.5, None, "12", b"1"])
    def test_key_must_be_a_sequence(self, key):
        with pytest.raises(InvalidArgumentError, match="stream key must be a sequence"):
            RngStream(0, key=key)

    def test_numpy_integer_seed_and_key_accepted(self):
        rng = RngStream(np.int64(4), key=(np.int32(2),)).substream(np.uint8(1))
        assert (rng.seed, rng.key) == (4, (2, 1))
        assert type(rng.seed) is int and all(type(k) is int for k in rng.key)

