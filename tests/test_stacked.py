"""The check battery's stacked evaluation path.

Every shipped surrogate and objective evaluates a stack of rows to the bits
of one-row calls, and a surrogate's ``values`` at its own argmin is the min u
that ``minimize`` returned; the battery reaches them only through the
stacked entry points; and a non-finite f or u fails the check.
"""

import math

import numpy as np
import pytest

from bsumkit import app_classic, cli, problems, verify
from bsumkit.core import (
    NumericFailure,
    ObjectiveOracle,
    RngStream,
    make_block_structure,
)
from bsumkit.engine import SolveOptions
from bsumkit.problems import TOY_SOLVERS, QuadraticProblem
from bsumkit.verify import check_first_order_match, check_tightness, check_upper_bound

VERIFY_TARGETS = ("proximal", "dc", "lipschitz", "quadratic_approx", "cp", "em_jensen")


def pairs():
    """(name, u, f, space) for each battery job, plus the lasso smooth-part pair
    and a proximal surrogate whose coefficient depends on the anchor."""
    jobs = cli._verify_jobs(0)
    out = [(name, *jobs[name]) for name in VERIFY_TARGETS]
    lasso_u, _, lasso_space = jobs["lipschitz"]
    out.append(("lipschitz_smooth", *lasso_u.smooth_part(), lasso_space))
    quad = QuadraticProblem(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]]),
                            np.array([1.0, -2.0, 0.5]))
    varying = quad.proximal_surrogate(c=lambda it, y: 0.5 + float(y.values @ y.values))
    out.append(("proximal_varying_c", varying, quad.objective(), jobs["proximal"][2]))
    return out


PAIRS = {name: (u, f, space) for name, u, f, space in pairs()}


def parts_of(name, structure):
    """Every block, and the group of all blocks except for CP, which updates
    one factor at a time."""
    parts = list(range(structure.n_blocks))
    if structure.n_blocks > 1 and name != "cp":
        parts.append(tuple(parts))
    return parts


@pytest.mark.parametrize("name", PAIRS)
def test_stacked_values_are_the_per_row_bits(name):
    """About 200 drawn (anchor, candidate) rows per part, evaluated in stacks
    of exactly n rows (n the variable's length, so a product that only fits
    by its shape is caught): each row of ``u.values`` and ``f.values_at`` has
    the bits of a one-row call, at the candidates and, as in the tightness
    check, at the anchors."""
    u, f, space = PAIRS[name]
    s = space.structure
    n = s.total
    for k, part in enumerate(parts_of(name, s)):
        gen = RngStream(5, key=(k,)).generator()
        anchors, cands = map(np.concatenate,
                             zip(*space.sample_rows(gen, n * math.ceil(200 / n), [part])))
        where = s.locate(part)[1]
        for a in range(0, len(anchors), n):
            y = anchors[a:a + n]
            for xi_rows in (cands[a:a + n, where], y[:, where]):
                got = u.values(part, xi_rows, y, s)
                want = [u.values(part, xi_rows[r:r + 1], y[r:r + 1], s)[0] for r in range(n)]
                assert got.shape == (n,)
                assert got.tobytes() == np.array(want).tobytes()
            got = f.values_at(cands[a:a + n])
            assert got.tobytes() == np.array([f.values_at(cands[r:r + 1])[0]
                                              for r in range(a, a + n)]).tobytes()


@pytest.mark.parametrize("name", PAIRS)
def test_values_at_the_argmin_is_the_min_u(name):
    """On 50 drawn anchors and every part, ``values`` at the point ``minimize``
    returned gives the min u that ``minimize`` returned, to the bit."""
    u, _, space = PAIRS[name]
    s = space.structure
    for y in space.sample_points(RngStream(6).generator(), 50):
        for part in parts_of(name, s):
            z, umin = u.minimize(part, y)
            where = s.locate(part)[1]
            got = u.values(part, z.values[where][None], y.values[None], s)
            assert got.tobytes() == np.array([umin]).tobytes()


@pytest.mark.parametrize("name", ["cp", "em_jensen"])
def test_app_objectives_take_stacks(name):
    """The objective a CP or EM surrogate hands the drivers also takes a stack
    of rows, each row with the bits of the battery's fit error or NLL there,
    and of the one-point call."""
    u, f, space = PAIRS[name]
    rows = np.concatenate([p for p, _ in space.sample_rows(RngStream(7).generator(), 100)])
    want = f.values_at(rows)
    assert u.objective().values_at(rows).tobytes() == want.tobytes()
    assert np.array([u.objective().value_at(r) for r in rows]).tobytes() == want.tobytes()


def toy_pair(solver, monkeypatch):
    """(u, f, block structure) that a short toy run hands its driver."""
    captured = []

    def capture(driver):
        def wrapper(f, u, x0, *args):
            captured.append((u, f, x0.structure))
            return driver(f, u, x0, *args)
        return wrapper

    # The drivers by the names the toys call them, each taking (f, u, x0, ...).
    for module, name in ((app_classic, "run_sum"), (app_classic, "run_bsum"),
                         (problems, "run_bsca")):
        monkeypatch.setattr(module, name, capture(getattr(module, name)))
    problems.toy_trace(solver, SolveOptions(max_iters=20))
    [pair] = captured
    return pair


@pytest.mark.parametrize("solver", TOY_SOLVERS)
def test_toy_pairs_pass_the_battery(solver, monkeypatch):
    """The (u, f) pair a toy run hands its driver takes stacks: it is tight on
    drawn anchors, a BSUM toy's u bounds f and the BSCA model matches f's
    slope."""
    u, f, structure = toy_pair(solver, monkeypatch)
    space = verify.SampleSpace.boxed(structure)
    anchors = space.sample_points(RngStream(8).generator(), 20)
    reports = [check_tightness(u, f, anchors)]
    if solver == "bsca":
        reports.append(check_first_order_match(u, f, anchors, space, RngStream(9)))
    else:
        reports.append(check_upper_bound(u, f, space, RngStream(9), n_samples=200))
    assert [r.passed for r in reports] == [True, True]


@pytest.mark.parametrize("solver", TOY_SOLVERS)
def test_toy_objectives_give_each_row_its_own_bits(solver, monkeypatch):
    """A toy objective at one point gives the bits of that point's row in a
    stack, values and gradients alike, on 20,000 seeded points."""
    _, f, structure = toy_pair(solver, monkeypatch)
    rows = np.random.default_rng(11).uniform(-10.0, 10.0, size=(20_000, structure.total))
    assert (np.array([f.value_at(r) for r in rows]).tobytes()
            == f.values_at(rows).tobytes())
    if f.gradient is not None:
        assert (np.array([f.gradient_at(r) for r in rows]).tobytes()
                == f.gradients_at(rows).tobytes())


def test_nonfinite_stacked_objective_fails_the_check():
    prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
    f = prob.objective()
    broken = ObjectiveOracle(value=lambda x: np.where(x[..., 0] > 4.0, np.inf, f.value(x)))
    space = verify.SampleSpace.boxed(make_block_structure([1]))
    with pytest.raises(NumericFailure, match="non-finite value inf"):
        check_upper_bound(prob.proximal_surrogate(), broken, space, RngStream(0), n_samples=500)


class NanSurrogate:
    """A surrogate whose u is NaN on every row."""

    def __init__(self, inner):
        self.inner = inner

    def values(self, part, xi_rows, anchor_rows, structure, iteration=1):
        return self.inner.values(part, xi_rows, anchor_rows, structure, iteration) * np.nan


def test_nonfinite_surrogate_fails_every_check():
    """A NaN u fails no comparison, so it would pass a check unseen; each
    check raises on it instead, naming the value."""
    prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
    u, f = NanSurrogate(prob.proximal_surrogate()), prob.objective()
    space = verify.SampleSpace.boxed(make_block_structure([1]))
    anchors = space.sample_points(RngStream(0).generator(), 10)
    checks = [lambda: check_tightness(u, f, anchors),
              lambda: check_upper_bound(u, f, space, RngStream(1), n_samples=100),
              lambda: check_first_order_match(u, f, anchors, space, RngStream(2))]
    for run in checks:
        with pytest.raises(NumericFailure, match="surrogate returned non-finite value nan"):
            run()


N_SAMPLES, N_ANCHORS = 1000, 40


@pytest.mark.parametrize("name", VERIFY_TARGETS)
def test_battery_never_falls_back_to_rows(name, monkeypatch):
    """At the benchmark's size no check of a shipped job makes a per-row
    ``value_at`` call, and each makes a number of stacked calls bounded by
    the number of row chunks it evaluates."""
    u, f, space = cli._verify_jobs(0)[name]
    classes = {type(u)} | ({type(u.smooth_part()[0])} if hasattr(u, "smooth_part") else set())
    counts = {"per_row": 0, "stacked": 0}

    def counted(owner, attr, kind):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    assert all(hasattr(cls, "values") and not hasattr(cls, "value") for cls in classes)
    counted(ObjectiveOracle, "value_at", "per_row")
    counted(ObjectiveOracle, "values_at", "stacked")
    for cls in classes:
        counted(cls, "values", "stacked")

    n_parts = space.structure.n_blocks
    n_first = max(10, N_ANCHORS // 2)

    def chunks(rows):
        return math.ceil(rows / verify._CHUNK_ROWS)

    rng = RngStream(0, key=(cli.hash_name(name),))
    anchors = space.sample_points(rng.substream(0).generator(), N_ANCHORS)
    checks = [
        (lambda: check_tightness(u, f, anchors), chunks(N_ANCHORS)),
        (lambda: check_upper_bound(u, f, space, rng.substream(1), n_samples=N_SAMPLES),
         chunks(N_SAMPLES)),
        (lambda: check_first_order_match(u, f, anchors[:n_first], space, rng.substream(2)),
         chunks(2 * len(verify._STEPS) * n_first)),
    ]
    if hasattr(u, "smooth_part"):
        u0, f0 = u.smooth_part()
        checks += [(lambda: check_tightness(u0, f0, anchors), chunks(N_ANCHORS)),
                   (lambda: check_upper_bound(u0, f0, space, rng.substream(3),
                                              n_samples=N_SAMPLES), chunks(N_SAMPLES))]
    for run, n_chunks in checks:
        counts["stacked"] = 0
        report = run()
        assert report.passed
        assert counts["per_row"] == 0
        # Per part and chunk: u's call, f's and up to two nested in u.
        assert 1 <= counts["stacked"] <= 4 * n_parts * n_chunks
