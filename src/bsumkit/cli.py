"""Command-line experiment runner.

Subcommands run canned experiments (cp, wmmse, em, toy) or the surrogate
check suite (verify). A JSON config file supplies ``{"experiment": ...,
"params": {...}, "seeds": [...], "output_dir": ...}``; command-line flags
override it. Exit codes: 0 success, 2 bad params (including an unreadable
input file), 3 a failed solver task. Per-seed trace CSVs and summary.json
are written atomically and are byte-identical across reruns of the same
config.

An experiment's (mode, seed) fits are independent, so on Linux they run on
up to ``os.cpu_count()`` processes: the parent forks one child per extra
CPU, each child pickles its fits' traces back through a pipe, and the
parent writes every artifact. One BSUM run stays on one CPU, because its
block order is sequential.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401 - argparse's gettext would import it inside each main() call
import math
import os
import pickle
import signal
import sys
import tempfile
import threading
import warnings
from typing import Any, Callable, Sequence

import numpy as np

from . import app_classic, app_tensor, app_wmmse, problems, verify
from .core import (
    BsumError,
    InvalidArgumentError,
    ObjectiveOracle,
    RngStream,
    Trace,
    _index,
    _real,
    box,
    make_block_structure,
    simplex,
)
from .engine import SolveOptions
from .surrogates import QuadraticApprox

__all__ = ["main", "run_experiment", "summarize", "iterations_to_threshold"]

EXPERIMENTS = ("cp", "wmmse", "em", "toy", "verify")

VERIFY_TARGETS = ("proximal", "dc", "lipschitz", "quadratic_approx", "cp", "em_jensen")


class ConfigError(Exception):
    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _line_of(raw: str | None, key: str | None) -> int | None:
    if raw is None or key is None:
        return None
    needle = f'"{key}"'
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def _fail_config(err: ConfigError, raw: str | None) -> int:
    line = _line_of(raw, err.key)
    where = f" (line {line})" if line is not None else ""
    print(f"config error{where}: {err}")
    return 2


# ---------------------------------------------------------------- validation

def _expect(cond: bool, message: str, key: str | None = None) -> None:
    if not cond:
        raise ConfigError(message, key)


def _validate_seeds(seeds: Any) -> list[int]:
    _expect(isinstance(seeds, list) and len(seeds) >= 1,
            "seeds must be a non-empty list of integers", "seeds")
    for s in seeds:
        _expect(_accepts(_index, s, least=0), f"seed {s!r} is not a nonnegative integer", "seeds")
    _expect(len(set(seeds)) == len(seeds), "seeds must not repeat", "seeds")
    return list(seeds)


_PARAM_TABLES: dict[str, dict[str, tuple]] = {
    # key: (kind, default) or ("choice", default, choices). Kinds: count
    # (integer >= 1), num (finite number), pos (number > 0), nonneg (number
    # >= 0), str, list; a choice is one of the choices or, where the default
    # is a list, a list of them.
    "cp": {
        "instance": ("choice", "swamp", ("swamp", "random", "file")),
        "theta": ("num", math.pi / 36),
        "tensor_file": ("str", None),
        "rank": ("count", 3),
        "dims": ("list", [4, 4, 4]),
        "modes": ("choice", list(app_tensor.CP_MODES), app_tensor.CP_MODES),
        "epsilon": ("pos", 1e-5),
        "max_iters": ("count", 5000),
        "tol": ("pos", 1e-14),
        "lam": ("nonneg", 0.1),
        "lam0": ("nonneg", 1e-7),
        "lam1": ("nonneg", 0.1),
    },
    "wmmse": {
        "n_cells": ("count", 2),
        "users_per_cell": ("count", 1),
        "n_antennas": ("count", 2),
        "streams": ("count", 1),
        "noise_power": ("pos", 1.0),
        "power": ("pos", 1.0),
        "max_iters": ("count", 400),
        "tol": ("pos", 1e-9),
    },
    "em": {
        "n_components": ("count", 2),
        "modes": ("choice", list(app_classic.EM_MODES), app_classic.EM_MODES),
        "data_file": ("str", None),
        "n_per_cluster": ("count", 500),
        "centers": ("list", [-5.0, 5.0]),
        "sigma": ("num", 1.0),
        "max_iters": ("count", 500),
        "tol": ("pos", 1e-10),
    },
    "toy": {
        "solver": ("choice", "prox", problems.TOY_SOLVERS),
        "max_iters": ("count", 200),
        # Below ~1e-8 the bsca demo's Armijo search hits rounding noise.
        "tol": ("pos", 1e-8),
    },
    "verify": {
        "surrogate": ("choice", "all", ("all", *VERIFY_TARGETS)),
        "n_samples": ("count", 1000),
        "n_anchors": ("count", 60),
    },
}

def _accepts(rule: Callable, val: Any, *args, **kwargs) -> bool:
    # Whether a core argument rule (``_index`` or ``_real``) takes ``val``.
    try:
        rule(val, "a parameter", *args, **kwargs)
    except InvalidArgumentError:
        return False
    return True


_KINDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "count": (lambda v: _accepts(_index, v, least=1), "an integer >= 1"),
    "num": (lambda v: _accepts(_real, v), "a finite number"),
    "pos": (lambda v: _accepts(_real, v, "positive"), "a positive number"),
    "nonneg": (lambda v: _accepts(_real, v, "nonnegative"), "a nonnegative number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
}


def _validate_params(experiment: str, params: Any) -> dict:
    _expect(isinstance(params, dict), "params must be an object", "params")
    table = _PARAM_TABLES[experiment]
    for key in params:
        _expect(key in table, f"unknown parameter {key!r} for experiment {experiment!r}", key)
    out = {}
    for key, (kind, default, *choices) in table.items():
        if key not in params:
            out[key] = default
            continue
        val = params[key]
        if kind == "choice" and isinstance(default, list):
            fits = (isinstance(val, list) and val != [] and all(v in choices[0] for v in val)
                    and len(set(val)) == len(val))
            wanted = f"a non-empty list of distinct values from {choices[0]}"
        elif kind == "choice":
            fits, wanted = val in choices[0], f"one of {choices[0]}"
        else:
            check, wanted = _KINDS[kind]
            fits = check(val)
        _expect(fits, f"parameter {key!r} must be {wanted}", key)
        out[key] = float(val) if kind in ("num", "pos", "nonneg") else val
    return out


def validate_config(config: Any) -> dict:
    _expect(isinstance(config, dict), "config must be a JSON object", None)
    for key in config:
        _expect(key in ("experiment", "params", "seeds", "output_dir"),
                f"unknown config key {key!r}", key)
    _expect("experiment" in config, "missing required key 'experiment'", None)
    experiment = config["experiment"]
    _expect(isinstance(experiment, str) and experiment in EXPERIMENTS,
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}", "experiment")
    seeds = _validate_seeds(config.get("seeds", [0]))
    params = _validate_params(experiment, config.get("params", {}))
    output_dir = config.get("output_dir", "bsumkit_runs")
    _expect(isinstance(output_dir, str) and output_dir != "",
            "output_dir must be a non-empty path", "output_dir")
    if experiment == "cp" and params["instance"] == "file":
        _expect(params["tensor_file"] is not None,
                "instance 'file' needs a tensor_file path", "tensor_file")
    if experiment == "cp" and params["instance"] == "random":
        dims = params["dims"]
        _expect(len(dims) == 3 and all(_accepts(_index, d, least=1) for d in dims),
                "dims must be three positive integers", "dims")
    if experiment == "wmmse":
        _expect(params["streams"] <= params["n_antennas"],
                "streams must not exceed n_antennas", "streams")
    if experiment == "em":
        centers = params["centers"]
        _expect(len(centers) == 2 and all(_accepts(_real, c) for c in centers),
                "centers must be two finite numbers", "centers")
    return {"experiment": experiment, "params": params, "seeds": seeds,
            "output_dir": output_dir}


# ------------------------------------------------------------------- output

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _block_label(block) -> str:
    if block is None:
        return ""
    if isinstance(block, (int, np.integer)):
        return str(int(block))
    return "|".join(str(int(i)) for i in block)


def trace_csv_text(trace: Trace) -> str:
    lines = ["iter,block,objective,step_size,elapsed_ns"]  # elapsed_ns is always 0
    for rec in trace.records:
        step = "" if rec.step_size is None else _fmt(rec.step_size)
        lines.append(f"{rec.iteration},{_block_label(rec.block)},"
                     f"{_fmt(rec.objective)},{step},0")
    return "\n".join(lines) + "\n"


def rates_csv_text(trace: Trace) -> str:
    lines = ["iter,objective,sum_rate_nats,max_power_violation"]
    for rec in trace.records:
        lines.append(f"{rec.iteration},{_fmt(rec.objective)},"
                     f"{_fmt(rec.extras['sum_rate_nats'])},"
                     f"{_fmt(rec.extras['max_power_violation'])}")
    return "\n".join(lines) + "\n"


def iterations_to_threshold(trace: Trace, threshold: float) -> int | None:
    for rec in trace.records:
        if rec.objective < threshold:
            return rec.iteration
    return None


def summarize(iteration_counts: dict[str, list]) -> dict:
    """Aggregate iterations-to-threshold; None entries count as censored."""
    out: dict[str, dict] = {}
    for key in sorted(iteration_counts):
        vals = iteration_counts[key]
        done = [int(v) for v in vals if v is not None]
        entry: dict[str, Any] = {
            "count": len(vals),
            "converged": len(done),
            "censored": len(vals) - len(done),
        }
        if done:
            entry.update(mean=float(np.mean(done)), median=float(np.median(done)),
                         min=min(done), max=max(done))
        out[key] = entry
    return out


# -------------------------------------------------------------- experiments

def _share(solve: Callable, tasks: list, first: int, step: int) -> list:
    """``(index, outcome)`` for tasks ``first, first + step, ...``: ``(trace,
    None)``, ``(None, message)`` for a ``BsumError``, or any other exception,
    which ends the share as it would end a serial run."""
    done = []
    for i in range(first, len(tasks), step):
        try:
            done.append((i, (solve(*tasks[i]), None)))
        except BsumError as exc:
            done.append((i, (None, str(exc))))
        except Exception as exc:
            return done + [(i, exc)]
    return done


def _child(solve: Callable, tasks: list, first: int, step: int, pipe: int) -> None:
    """In a forked child: run one share, pickle it into ``pipe`` and exit."""
    code = 1
    try:
        done = _share(solve, tasks, first, step)
        i, last = done[-1]
        if isinstance(last, Exception):
            try:  # the parent must be able to unpickle the exception it re-raises
                pickle.loads(pickle.dumps(last))
            except Exception:
                done[-1] = (i, RuntimeError(repr(last)))
        with open(pipe, "wb") as fh:
            fh.write(pickle.dumps(done))
        code = 0
    finally:
        os._exit(code)


def _outcomes(solve: Callable, tasks: list) -> list:
    """The outcome of every task (see ``_share``), in task order.

    Of W = min(tasks, ``os.cpu_count()``) workers, W - 1 are forked children:
    child w runs tasks w, w + W, ..., and the parent runs the share from task
    0. A child that ends without a complete answer fails each of its tasks
    with an error naming how it ended. Another exception is re-raised for the
    lowest task index, as a serial run raises it. No child outlives the call.
    """
    step = min(len(tasks), os.cpu_count() or 1)
    # numpy's BLAS is not fork-safe on every platform, and forking a process
    # with a second Python thread can deadlock the child.
    if sys.platform != "linux" or threading.active_count() > 1:
        step = 1
    mine, children = [0], {}  # the parent's shares; pid -> (read end, first task)
    try:
        for first in range(1, step):
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns at fork() while the process has a
                    # second OS thread. Python threads are ruled out above, and
                    # OpenBLAS's idle pool registers pthread_atfork handlers.
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-"
                                            r"threaded, use of fork\(\)", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to spare: the parent runs this share
                os.close(read_end)
                os.close(write_end)
                mine.append(first)
                continue
            if pid == 0:
                _child(solve, tasks, first, step, write_end)
            os.close(write_end)
            children[pid] = open(read_end, "rb"), first
        done = dict(item for first in mine for item in _share(solve, tasks, first, step))
        for pid, (answer, first) in list(children.items()):
            with answer:
                data = answer.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code == 0:
                done.update(pickle.loads(data))
                continue
            names = {int(s): s.name for s in signal.Signals}
            how = (f"killed by {names.get(-code, f'signal {-code}')}" if code < 0
                   else f"exited with status {code}")
            done.update((i, (None, f"worker process {how} before it answered"))
                        for i in range(first, len(tasks), step))
    finally:
        for pid, (answer, _) in children.items():  # left only when the parent raises
            answer.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [i for i, outcome in done.items() if isinstance(outcome, Exception)]
    if failed:
        raise done[min(failed)]
    return [done[i] for i in range(len(tasks))]


def _run_tasks(name: str, modes: Sequence, seeds: list[int],
               solve: Callable[[Any, int], Trace], out_dir: str,
               rates: bool = False) -> tuple[list, dict]:
    """Run ``solve(mode, seed)`` for every mode and seed, on up to
    ``os.cpu_count()`` processes (see ``_outcomes``).

    Each trace is written to ``{name}_{mode}_seed{seed}.csv``, or
    ``{name}_seed{seed}.csv`` when the mode is None, plus the rates CSV when
    ``rates`` is set; the parent writes every file, in task order, so the
    artifacts do not depend on the number of CPUs. A ``BsumError`` inside a
    task, or a worker process that dies, becomes an ``errors`` entry and
    that task's trace is None. Returns the ``(mode, seed, trace)`` triples in
    task order, and the summary's ``tasks`` (a record of each finished task)
    and ``errors`` (sorted by mode and seed).
    """
    tasks = [(mode, seed) for mode in modes for seed in seeds]
    results, records, errors = [], [], []
    for (mode, seed), (trace, err) in zip(tasks, _outcomes(solve, tasks)):
        tag = f"seed{seed}" if mode is None else f"{mode}_seed{seed}"
        if err is None:
            _atomic_write(os.path.join(out_dir, f"{name}_{tag}.csv"),
                          trace_csv_text(trace))
            if rates:
                _atomic_write(os.path.join(out_dir, f"{name}_rates_{tag}.csv"),
                              rates_csv_text(trace))
            records.append({"mode": mode, "seed": seed, "status": trace.terminal_status,
                            "iterations": trace.n_iterations, "objective": trace.final_objective,
                            "stationarity_gap": trace.stationarity_gap, "warnings": trace.warnings})
        else:
            errors.append({"seed": seed, "error": err} if mode is None
                          else {"mode": mode, "seed": seed, "error": err})
        results.append((mode, seed, trace))
    errors.sort(key=lambda e: (e.get("mode", ""), e["seed"]))
    return results, {"tasks": records, "errors": errors}


def _run_cp(params: dict, seeds: list[int], out_dir: str, opts: SolveOptions) -> dict:
    if params["instance"] == "file":
        try:
            tensor = app_tensor.read_tensor(params["tensor_file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read tensor_file: {exc}", "tensor_file") from exc
    else:
        tensor = (app_tensor.build_swamp_instance(params["theta"]) if params["instance"] == "swamp"
                  else app_tensor.random_rank_instance(
                      tuple(params["dims"]), params["rank"], RngStream(0, key=(99,))))
        app_tensor.write_tensor(os.path.join(out_dir, "cp_instance.txt"), tensor)

    def solve(mode, seed):
        return app_tensor.run_cp(
            tensor, params["rank"], mode=mode, opts=opts, rng=RngStream(seed),
            lam=params["lam"], lam0=params["lam0"], lam1=params["lam1"])[1]

    results, summary = _run_tasks("cp", params["modes"], seeds, solve, out_dir)
    counts: dict[str, list] = {m: [] for m in params["modes"]}
    for mode, _, trace in results:
        counts[mode].append(None if trace is None
                            else iterations_to_threshold(trace, params["epsilon"]))
    return {**summary, "threshold": params["epsilon"],
            "iterations_to_threshold": summarize(counts)}


def _run_wmmse(params: dict, seeds: list[int], out_dir: str, opts: SolveOptions) -> dict:
    spec = app_wmmse.NetworkSpec.build(
        n_cells=params["n_cells"], users_per_cell=params["users_per_cell"],
        n_antennas=params["n_antennas"], streams=params["streams"],
        noise_power=params["noise_power"], power=params["power"])

    def solve(_, seed):
        H = app_wmmse.gen_channels(spec, RngStream(seed))
        V0 = app_wmmse.init_transmitters(spec, RngStream(seed).substream(1))
        return app_wmmse.run_wmmse(spec, H, V0, opts)[1]

    results, summary = _run_tasks("wmmse", [None], seeds, solve, out_dir, rates=True)
    summary["final_sum_rate_nats"] = {str(seed): trace.records[-1].extras["sum_rate_nats"]
                                      for _, seed, trace in results if trace is not None}
    return summary


def _checked(data: np.ndarray, name: str, key: str) -> np.ndarray:
    _expect(np.isfinite(data).all(), f"{name} holds a non-finite value", key)
    _expect(data.size >= 2, f"{name} needs at least two observations", key)
    _expect(np.isfinite(np.var(data)), f"{name}'s variance overflows", key)
    return data


def _run_em(params: dict, seeds: list[int], out_dir: str, opts: SolveOptions) -> dict:
    # Each seed's sample is drawn and checked once, before the tasks, which
    # share it: em_gmm never writes into its data.
    with np.errstate(over="ignore", invalid="ignore"):
        if params["data_file"] is None:
            (c0, c1), sigma = params["centers"], params["sigma"]
            # A bad sample is blamed on whichever key spreads it more.
            key = "centers" if abs(c1 - c0) > abs(sigma) else "sigma"
            samples = {seed: _checked(app_classic.two_cluster_dataset(
                RngStream(seed), n_per_cluster=params["n_per_cluster"], centers=(c0, c1),
                sigma=sigma), "the sample drawn from centers and sigma", key) for seed in seeds}
        else:
            try:
                with warnings.catch_warnings():  # an empty file warns, then fails the size check
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(params["data_file"], dtype=np.float64).ravel()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read data_file: {exc}", "data_file") from exc
            samples = dict.fromkeys(seeds, _checked(data, "data_file", "data_file"))

    def solve(mode, seed):
        return app_classic.em_gmm(samples[seed], params["n_components"], mode=mode, opts=opts)[1]

    _, summary = _run_tasks("em", params["modes"], seeds, solve, out_dir)
    final: dict[str, dict] = {m: {} for m in params["modes"]}
    for rec in summary["tasks"]:
        final[rec["mode"]][str(rec["seed"])] = {"nll": rec["objective"],
                                                "iterations": rec["iterations"]}
    return {**summary, "final": final}


def _run_toy(params: dict, seeds: list[int], out_dir: str, opts: SolveOptions) -> dict:
    return _run_tasks("toy", [params["solver"]], seeds,
                      lambda solver, _: problems.toy_trace(solver, opts), out_dir)[1]


def _verify_jobs(seed: int):
    """Shipped surrogates, each with its objective and sample space."""
    quad = problems.QuadraticProblem(
        Q=np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]]),
        b=np.array([1.0, -2.0, 0.5]))
    f_dc, dc, _ = problems.separable_quartic_dc([2])
    f_lasso, lasso, _ = problems.lasso_problem(target=[1.0, -2.0], weight=0.5, gamma=1.0)

    # The headline cp run's instance and dim_prox/misum lambda, checked
    # against the public fit error rather than the surrogate's own objective().
    cp = {key: entry[1] for key, entry in _PARAM_TABLES["cp"].items()}
    tensor = app_tensor.build_swamp_instance(cp["theta"])
    cp_structure = make_block_structure([n * cp["rank"] for n in tensor.shape])
    cp_f = ObjectiveOracle(value=lambda rows: app_tensor.cp_residual_rows(tensor, rows, cp["rank"]))
    cp_u = app_tensor.CpSurrogate(
        tensor, cp["rank"], app_tensor.LambdaSchedule.diminishing(cp["lam0"], cp["lam1"]))

    em_data = app_classic.two_cluster_dataset(
        RngStream(seed, key=(7,)), n_per_cluster=20, centers=(-2.0, 2.0), sigma=0.8)
    em_structure = make_block_structure([2, 2, 2])
    em_space = verify.SampleSpace(
        structure=em_structure,
        feasible=(simplex(floor=0.05), box([-4.0, -4.0], [4.0, 4.0]),
                  box([0.3, 0.3], [3.0, 3.0])),
        lo=-4.0, hi=4.0)
    em_f = ObjectiveOracle(value=lambda rows: app_classic.gmm_nll_rows(rows, em_data))

    boxed = verify.SampleSpace.boxed
    return {
        "proximal": (quad.proximal_surrogate(c=0.7), quad.objective(),
                     boxed(make_block_structure([1, 2]))),
        "dc": (dc, f_dc, boxed(make_block_structure([2]))),
        "lipschitz": (lasso, f_lasso, boxed(make_block_structure([2]))),
        # On the box [-2, 2]^2 the quartic's curvature tops out at 3*4 - 1 = 11,
        # so the 1/t = 20 quadratic model dominates there.
        "quadratic_approx": (QuadraticApprox(f_dc, t=0.05), f_dc,
                             boxed(make_block_structure([1, 1]), lo=-2.0, hi=2.0)),
        "cp": (cp_u, cp_f, boxed(cp_structure)),
        "em_jensen": (app_classic.GmmJensenSurrogate(em_data, s_floor=1e-8), em_f, em_space),
    }


def run_verify_suite(surrogate: str = "all", seed: int = 0, n_samples: int = 1000,
                     n_anchors: int = 60) -> dict[str, list[verify.CheckReport]]:
    """Run the check battery over the shipped surrogates; returns reports.

    Each surrogate gets tightness, upper bound and first-order match, and a
    composite one (with ``smooth_part``) also the two smooth-part checks.
    """
    jobs = _verify_jobs(seed)
    names = list(jobs) if surrogate == "all" else [surrogate]
    results: dict[str, list[verify.CheckReport]] = {}
    for name in names:
        u, f, space = jobs[name]
        rng = RngStream(seed, key=(hash_name(name),))
        anchors = space.sample_points(rng.substream(0).generator(), n_anchors)
        reports = [
            verify.check_tightness(u, f, anchors),
            verify.check_upper_bound(u, f, space, rng.substream(1), n_samples=n_samples),
            verify.check_first_order_match(u, f, anchors[:max(10, n_anchors // 2)],
                                           space, rng.substream(2)),
        ]
        if hasattr(u, "smooth_part"):
            u0, f0 = u.smooth_part()
            reports.extend(verify.check_composite_smooth(
                u0, f0, space, rng.substream(3), anchors, n_samples=n_samples))
        results[name] = reports
    return results


def hash_name(name: str) -> int:
    # Stable small integer from a name (hash() is salted per process).
    return sum((i + 1) * ord(ch) for i, ch in enumerate(name)) % 65521


def _run_verify(params: dict, seeds: list[int], out_dir: str, opts: SolveOptions) -> dict:
    results = run_verify_suite(params["surrogate"], seed=seeds[0],
                               n_samples=params["n_samples"],
                               n_anchors=params["n_anchors"])
    payload = {name: [r.to_json() for r in reports]
               for name, reports in sorted(results.items())}
    _atomic_write(os.path.join(out_dir, "verify_report.json"),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    all_pass = all(r.passed for reports in results.values() for r in reports)
    for name in sorted(results):
        for r in results[name]:
            print(f"{name}.{r.check}: {'PASS' if r.passed else 'FAIL'} "
                  f"({r.n_violations}/{r.n_samples} violations)")
    return {"all_passed": all_pass, "report": "verify_report.json", "tasks": [], "errors": []}


_RUNNERS = {"cp": _run_cp, "wmmse": _run_wmmse, "em": _run_em, "toy": _run_toy,
            "verify": _run_verify}


def run_experiment(config: dict, raw: str | None = None) -> int:
    """Validate the config, run the experiment, write artifacts; exit code.

    Bad params exit 2: whatever ``validate_config`` rejects, and any error
    the runner meets while building its inputs. Only a failed solver task
    exits 3; it is listed in the summary's ``errors``.
    """
    try:
        cfg = validate_config(config)
        experiment, params, seeds, out_dir = (
            cfg[k] for k in ("experiment", "params", "seeds", "output_dir"))
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir: {exc}", "output_dir") from exc
        opts = SolveOptions(**{k: params[k] for k in ("max_iters", "tol") if k in params},
                            target_objective=params.get("epsilon"))
        summary = {"experiment": experiment,
                   **_RUNNERS[experiment](params, seeds, out_dir, opts),
                   "config": {"experiment": experiment, "params": params, "seeds": seeds}}
    except ConfigError as err:
        return _fail_config(err, raw)
    except BsumError as exc:
        # Solver failures never get here: the task loop records them.
        return _fail_config(ConfigError(str(exc)), raw)
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    for e in summary["errors"]:
        print(f"solver error: {e}")
    return 3 if summary["errors"] else 0


# ------------------------------------------------------------------ parsing

def _parse_seed_range(text: str) -> list[int]:
    lo, is_range, hi = text.partition("..")
    try:
        seeds = (list(range(int(lo), int(hi) + 1)) if is_range
                 else [int(part) for part in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad seed {'range' if is_range else 'list'} {text!r}") from exc
    if not seeds:
        raise ConfigError(f"bad seed range {text!r}: start exceeds end")
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsumkit",
        description="Run block surrogate-minimization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--seed", type=int, help="single seed")
        group.add_argument("--seeds", help="seed range A..B or comma list")
        p.add_argument("--max-iters", type=int, dest="max_iters")
        p.add_argument("--tol", type=float)
        p.add_argument("--out", help="output directory")
        if name == "cp":
            p.add_argument("--theta", type=float,
                           help="collinearity angle of the stagnation instance")
            p.add_argument("--tensor-file", dest="tensor_file",
                           help="read the instance from a tensor text file")
    return parser


def _config_from_args(args) -> tuple[dict, str | None]:
    raw = None
    if args.config:
        try:
            with open(args.config) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        try:
            config = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}")
        if isinstance(config, dict) and "experiment" not in config:
            config["experiment"] = args.command
    else:
        config = {"experiment": args.command}
    if isinstance(config, dict):
        if config.get("params") is None:
            config["params"] = {}
        if args.seed is not None:
            config["seeds"] = [args.seed]
        if args.seeds is not None:
            config["seeds"] = _parse_seed_range(args.seeds)
        if args.out is not None:
            config["output_dir"] = args.out
        params = config["params"]
        if isinstance(params, dict):
            for key in ("max_iters", "tol", "theta", "tensor_file"):
                if getattr(args, key, None) is not None:
                    params[key] = getattr(args, key)
            if getattr(args, "tensor_file", None) is not None:
                params["instance"] = "file"
    return config, raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, raw = _config_from_args(args)
    except ConfigError as err:
        return _fail_config(err, None)
    return run_experiment(config, raw)


if __name__ == "__main__":
    raise SystemExit(main())
