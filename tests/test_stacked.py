"""The check battery's stacked evaluation path.

Every shipped surrogate and objective evaluates a stack of rows to the bits
of its one-row ``value``/``value_at``; the battery reaches them only through
the stacked entry points; and a surrogate or objective without them goes
through the per-row adapter with today's report.
"""

import hashlib
import math

import numpy as np
import pytest

from bsumkit import cli, verify
from bsumkit.core import (
    NumericFailure,
    ObjectiveOracle,
    Point,
    RngStream,
    make_block_structure,
)
from bsumkit.problems import QuadraticProblem
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


@pytest.mark.parametrize("name", PAIRS)
def test_stacked_values_are_the_per_row_bits(name):
    """About 200 drawn (anchor, candidate) rows per part: ``u.values`` and
    ``f.values_at`` give the bits of ``u.value`` and ``f.value_at`` row by
    row, at the candidates and, as in the tightness check, at the anchors."""
    u, f, space = PAIRS[name]
    s = space.structure
    parts = list(range(s.n_blocks))
    if s.n_blocks > 1 and name != "cp":  # CP updates one factor at a time
        parts.append(tuple(parts))
    for k, part in enumerate(parts):
        gen = RngStream(5, key=(k,)).generator()
        anchors, cands = map(np.concatenate, zip(*space.sample_rows(gen, 200, [part])))
        where = s.locate(part)[1]
        for xi_rows in (cands[:, where], anchors[:, where]):
            got = u.values(part, xi_rows, anchors, s)
            want = [u.value(part, xi, Point(y, s)) for xi, y in zip(xi_rows, anchors)]
            assert got.shape == (200,)
            assert got.tobytes() == np.array(want).tobytes()
        got = f.values_at(cands)
        assert got.tobytes() == np.array([f.value_at(x) for x in cands]).tobytes()


class ValueOnly:
    """A shipped surrogate seen through ``value`` alone, as a third-party one is."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, part, xi, anchor, iteration=1):
        return self.inner.value(part, xi, anchor, iteration)


class ComposedValueOnly(ValueOnly):

    def smooth_part(self):
        u0, f0 = self.inner.smooth_part()
        return ValueOnly(u0), ObjectiveOracle(value=f0.value)


def test_value_only_jobs_keep_the_pinned_report(tmp_path, monkeypatch):
    """With every surrogate and objective of the battery stripped to its
    one-row ``value``, the per-row adapter writes the report whose bytes
    test_cli's ``test_verify_report_bits_are_pinned`` pins."""
    jobs = cli._verify_jobs
    calls = []

    def value_only_jobs(seed):
        out = {}
        for name, (u, f, space) in jobs(seed).items():
            wrap = ComposedValueOnly if hasattr(u, "smooth_part") else ValueOnly
            out[name] = (wrap(u), ObjectiveOracle(value=f.value), space)
        return out

    value = ValueOnly.value
    monkeypatch.setattr(ValueOnly, "value", lambda *a, **k: calls.append(1) or value(*a, **k))
    monkeypatch.setattr(cli, "_verify_jobs", value_only_jobs)
    out_dir = tmp_path / "out"
    config = {"experiment": "verify", "seeds": [0],
              "params": {"n_samples": 50, "n_anchors": 12}, "output_dir": str(out_dir)}
    assert cli.run_experiment(config) == 0
    blob = (out_dir / "verify_report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "dff61c97e6220777e11144a5d191dd5b4173de2ab9c66c4f496e1b4cc5d1f484")
    assert len(calls) > 1000  # the adapter ran, one call per row


def test_nonfinite_stacked_objective_fails_the_check():
    prob = QuadraticProblem(np.array([[2.0]]), np.array([0.0]))
    f = prob.objective()
    broken = ObjectiveOracle(value=f.value, values=lambda rows: np.where(
        rows[:, 0] > 4.0, np.inf, f.values(rows)))
    space = verify.SampleSpace.boxed(make_block_structure([1]))
    with pytest.raises(NumericFailure, match="non-finite value inf"):
        check_upper_bound(prob.proximal_surrogate(), broken, space, RngStream(0), n_samples=500)


N_SAMPLES, N_ANCHORS = 1000, 40


@pytest.mark.parametrize("name", VERIFY_TARGETS)
def test_battery_never_falls_back_to_rows(name, monkeypatch):
    """At the benchmark's size no check of a shipped job makes a per-row
    ``value_at`` or ``value`` call, and each makes a number of stacked calls
    bounded by the number of row chunks it evaluates."""
    u, f, space = cli._verify_jobs(0)[name]
    classes = {type(u)} | ({type(u.smooth_part()[0])} if hasattr(u, "smooth_part") else set())
    counts = {"per_row": 0, "stacked": 0}

    def counted(owner, attr, kind):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    assert all(hasattr(cls, "values") for cls in classes)
    counted(ObjectiveOracle, "value_at", "per_row")
    counted(ObjectiveOracle, "values_at", "stacked")
    for cls in classes:
        counted(cls, "value", "per_row")
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
