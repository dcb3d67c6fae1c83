"""One argument rule for the package: every scalar argument of a public
constructor or runner either is accepted, and the call gives finite
results, or is refused with a package error, never with a bare
``TypeError`` or ``OverflowError``, and never taken silently when it is
out of range."""

import dataclasses
import math

import numpy as np
import pytest

from bsumkit import problems
from bsumkit.app_classic import em_gmm, two_cluster_dataset
from bsumkit.app_tensor import CpSurrogate, LambdaSchedule, random_rank_instance, run_cp
from bsumkit.app_wmmse import NetworkSpec
from bsumkit.core import (
    BsumError,
    Point,
    RngStream,
    Trace,
    TraceRecord,
    ball,
    box,
    make_block_structure,
    simplex,
)
from bsumkit.engine import Schedule, SolveOptions
from bsumkit.surrogates import QuadraticApprox, soft_threshold
from bsumkit.verify import SampleSpace, audit_trace, check_upper_bound

VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "huge": 10 ** 400,
          "bool": True, "str": "2", "2.5": 2.5, "2": 2, "-1": -1, "0": 0}

REALS = ("2.5", "2")  # the positive reals, for an argument with no upper bound
NONNEG = ("2.5", "2", "0")
COUNT = ("2",)

_OPTS = SolveOptions(max_iters=3)
_TENSOR = random_rank_instance((2, 3, 3), 2, RngStream(5))
_DATA = two_cluster_dataset(RngStream(3), n_per_cluster=10)
_QUAD = problems.QuadraticProblem(Q=np.array([[2.0, 0.5], [0.5, 1.0]]), b=np.array([1.0, -1.0]))
_X = Point(np.zeros(2), make_block_structure([1, 1]))
_LASSO_F, _LASSO, _LASSO_X = problems.lasso_problem([1.0, -2.0], gamma=0.5)
_TRACE = Trace(initial_objective=1.0, records=[TraceRecord(1, 0, 0.5)])


def _network(**kwargs):
    spec = NetworkSpec.build(**{"n_cells": 1, "users_per_cell": 1, "n_antennas": 2, **kwargs})
    return (spec.n_users, *spec.noise_power, *spec.power)


def _cp(*args, **kwargs):
    factors, trace = run_cp(_TENSOR, *args, opts=_OPTS, **kwargs)
    return np.append(factors.to_point().values, trace.final_objective)


def _space(**kwargs):
    space = SampleSpace.boxed(_LASSO_X.structure, **kwargs)
    return (space.lo, space.hi)


# name: (call of the one scalar under test, the VALUES labels it must accept)
CASES = {
    "make_block_structure": (lambda v: make_block_structure([v, 1]).total, COUNT),
    "ball": (lambda v: ball(v).project(np.array([3.0, 4.0])), REALS),
    "simplex": (lambda v: simplex(v).project(np.array([0.2, 0.5, 0.3])), ("0",)),
    "box.lo": (lambda v: box(v, 1.0).project(np.array([0.5])), ("-inf", "-1", "0")),
    "box.hi": (lambda v: box(0.0, v).project(np.array([0.5])), ("inf", "2.5", "2", "0")),
    "RngStream.seed": (lambda v: RngStream(v).generator().uniform(), ("2", "0")),
    "RngStream.substream": (lambda v: RngStream(0).substream(v).generator().uniform(),
                            ("2", "0")),
    "Schedule.cyclic": (lambda v: Schedule.cyclic(v).period, COUNT),
    "Schedule.period": (lambda v: Schedule.essentially_cyclic(2, [[0], [1]], v).period, COUNT),
    "SolveOptions.max_iters": (lambda v: SolveOptions(max_iters=v).max_iters, COUNT),
    "SolveOptions.tol": (lambda v: SolveOptions(tol=v).tol, REALS),
    "SolveOptions.target_objective": (lambda v: SolveOptions(target_objective=v).target_objective,
                                      ("2.5", "2", "-1", "0")),
    "ProximalSurrogate.c": (lambda v: _QUAD.proximal_surrogate(c=v).minimize(0, _X)[1], REALS),
    "LipschitzQuadraticSurrogate.beta": (
        lambda v: dataclasses.replace(_LASSO, beta=v).minimize(0, _LASSO_X)[1], REALS),
    "LipschitzQuadraticSurrogate.gamma": (
        lambda v: dataclasses.replace(_LASSO, gamma=v).minimize(0, _LASSO_X)[1], ()),
    "LipschitzQuadraticSurrogate.eps": (
        lambda v: dataclasses.replace(_LASSO, eps=v).minimize(0, _LASSO_X)[1], ()),
    "QuadraticApprox.t": (lambda v: QuadraticApprox(_QUAD.objective(), v).minimize(0, _X)[1],
                          REALS),
    "soft_threshold": (lambda v: soft_threshold(np.array([1.0, -3.0]), v), NONNEG),
    "LambdaSchedule.lam0": (lambda v: dataclasses.astuple(LambdaSchedule(v, 0.0)), NONNEG),
    "LambdaSchedule.lam1": (lambda v: dataclasses.astuple(LambdaSchedule(0.0, v)), NONNEG),
    "LambdaSchedule.constant": (lambda v: dataclasses.astuple(LambdaSchedule.constant(v)),
                                NONNEG),
    "LambdaSchedule.diminishing.lam0": (
        lambda v: dataclasses.astuple(LambdaSchedule.diminishing(v)), NONNEG),
    "LambdaSchedule.diminishing.lam1": (
        lambda v: dataclasses.astuple(LambdaSchedule.diminishing(1e-7, v)), NONNEG),
    "run_cp.rank": (lambda v: _cp(v), COUNT),
    "run_cp.lam": (lambda v: _cp(2, mode="const_prox", lam=v), NONNEG),
    "run_cp.lam0": (lambda v: _cp(2, mode="dim_prox", lam0=v), NONNEG),
    "run_cp.lam1": (lambda v: _cp(2, mode="dim_prox", lam1=v), NONNEG),
    "random_rank_instance": (lambda v: random_rank_instance((2, 2, 2), v, RngStream(1)).values,
                             COUNT),
    "CpSurrogate.rank": (lambda v: CpSurrogate(_TENSOR, v, LambdaSchedule.constant(0.1)).rank,
                         COUNT),
    "em_gmm.n_components": (lambda v: em_gmm(_DATA, v, opts=_OPTS)[1].final_objective, COUNT),
    "em_gmm.s_floor": (lambda v: em_gmm(_DATA, 2, opts=_OPTS, s_floor=v)[1].final_objective,
                       REALS),
    "NetworkSpec.n_cells": (lambda v: _network(n_cells=v), COUNT),
    "NetworkSpec.users_per_cell": (lambda v: _network(users_per_cell=v), COUNT),
    "NetworkSpec.n_antennas": (lambda v: _network(n_antennas=v), COUNT),
    "NetworkSpec.streams": (lambda v: _network(streams=v), COUNT),
    "NetworkSpec.noise_power": (lambda v: _network(noise_power=v), REALS),
    "NetworkSpec.power": (lambda v: _network(power=v), REALS),
    "lasso_problem.weight": (
        lambda v: problems.lasso_problem([1.0, -2.0], weight=v)[1].minimize(0, _LASSO_X)[1],
        NONNEG),
    "SampleSpace.lo": (lambda v: _space(lo=v), ("2.5", "2", "-1", "0")),
    "SampleSpace.hi": (lambda v: _space(hi=v), ("2.5", "2", "-1", "0")),
    "check_upper_bound.n_samples": (
        lambda v: check_upper_bound(_LASSO, _LASSO_F, SampleSpace.boxed(_LASSO_X.structure),
                                    RngStream(0), n_samples=v).worst_gap, COUNT),
    "audit_trace.slack": (lambda v: audit_trace(_TRACE, slack=v).worst_gap, NONNEG),
}


@pytest.mark.parametrize("call, accepts", CASES.values(), ids=list(CASES))
def test_scalar_arguments_follow_one_rule(call, accepts):
    wrong = []
    for label, value in VALUES.items():
        try:
            result = call(value)
        except BsumError:
            if label in accepts:
                wrong.append(f"{label} refused")
            continue
        except Exception as exc:  # noqa: BLE001 - the table reports every stray error
            wrong.append(f"{label} raised {type(exc).__name__}: {exc}")
            continue
        if label not in accepts:
            wrong.append(f"{label} accepted")
        elif not np.all(np.isfinite(np.asarray(result, dtype=np.float64))):
            wrong.append(f"{label} gave a non-finite result")
    assert wrong == []
