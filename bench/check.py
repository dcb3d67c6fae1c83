"""Output check for one CLI invocation, from its artifacts only.

A task is one (mode, seed) run, or one report of the verify battery. It
fails on a nonzero exit of the invocation, on an entry in ``summary.json``
``errors``, or on any check below:

* every trace CSV parses back exactly (17 significant digits round-trip)
  and passes ``verify.audit_trace`` at 1e-12 slack;
* cp: a run that reaches the fit threshold stops there, and the summary's
  converged/censored counts and statistics match the traces;
* wmmse: no cell exceeds its power budget by more than 1e-9, the objective
  equals minus the sum rate within 1e-9 on receiver half-steps, and the
  summary's final rate is the trace's;
* em: the summary's final NLL and iteration count are the trace's;
* verify: every report passed and the summary says so.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field

from bsumkit import verify
from bsumkit.core import Trace, TraceRecord

AUDIT_SLACK = 1e-12
POWER_TOL = 1e-9
RATE_IDENTITY_TOL = 1e-9
TRACE_HEADER = "iter,block,objective,step_size,elapsed_ns"
RATES_HEADER = "iter,objective,sum_rate_nats,max_power_violation"


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    work_units: int = 0
    artifact_bytes: int = 0
    artifact_files: int = 0

    def fail(self, what: str, tasks: int = 1) -> None:
        self.failed += tasks
        self.problems.append(what)


class ArtifactError(Exception):
    pass


def _exact_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ArtifactError(f"{text!r} is not a number") from exc
    if f"{value:.17g}" != text:
        raise ArtifactError(f"{text!r} does not round-trip at 17 digits")
    return value


def _read_rows(path: str, header: str) -> list[list[str]]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ArtifactError(f"cannot read {os.path.basename(path)}: {exc}") from exc
    if not lines or lines[0] != header:
        raise ArtifactError(f"{os.path.basename(path)}: bad header")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if not rows or any(len(r) != width for r in rows):
        raise ArtifactError(f"{os.path.basename(path)}: empty or ragged rows")
    return rows


def read_trace(path: str) -> tuple[Trace, list[str]]:
    """The trace in a CLI CSV, and its block labels."""
    trace = Trace()
    blocks = []
    for k, row in enumerate(_read_rows(path, TRACE_HEADER), start=1):
        if row[0] != str(k):
            raise ArtifactError(f"{os.path.basename(path)}: iterations are not 1..n")
        trace.records.append(TraceRecord(iteration=k, block=row[1],
                                         objective=_exact_float(row[2])))
        blocks.append(row[1])
    return trace, blocks


def _audited(path: str) -> tuple[Trace, list[str]]:
    trace, blocks = read_trace(path)
    report = verify.audit_trace(trace, slack=AUDIT_SLACK)
    if not report.passed:
        raise ArtifactError(f"{os.path.basename(path)}: objective rises "
                            f"({report.n_violations} upticks, worst {report.worst_gap:.3e})")
    return trace, blocks


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot load {os.path.basename(path)}: {exc}") from exc


def _iteration_stats(counts: list) -> dict:
    done = [c for c in counts if c is not None]
    out = {"count": len(counts), "converged": len(done),
           "censored": len(counts) - len(done)}
    if done:
        out.update(mean=sum(done) / len(done), median=float(statistics.median(done)),
                   min=min(done), max=max(done))
    return out


def _check_cp(config, out_dir, summary, bad, outcome):
    params = config["params"]
    eps = params["epsilon"]
    expected = summary.get("iterations_to_threshold", {})
    for mode in params["modes"]:
        counts, failed_here = [], 0
        for seed in config["seeds"]:
            if (mode, seed) in bad:
                counts.append(None)
                continue
            try:
                trace, _ = _audited(os.path.join(out_dir, f"cp_{mode}_seed{seed}.csv"))
            except ArtifactError as exc:
                outcome.fail(str(exc))
                failed_here += 1
                continue
            outcome.work_units += len(trace.records)
            objectives = [r.objective for r in trace.records]
            hit = next((k for k, v in enumerate(objectives) if v < eps), None)
            if (hit is not None and hit != len(objectives) - 1) \
                    or len(objectives) > params["max_iters"]:
                outcome.fail(f"cp {mode} seed {seed}: did not stop at the fit "
                             "threshold or the iteration budget")
                failed_here += 1
            counts.append(None if hit is None else hit + 1)
        if failed_here == 0 and expected.get(mode) != _iteration_stats(counts):
            outcome.fail(f"cp {mode}: summary counts do not match the traces",
                         len(config["seeds"]))


def _check_wmmse(config, out_dir, summary, bad, outcome):
    finals = summary.get("final_sum_rate_nats", {})
    for seed in config["seeds"]:
        if (None, seed) in bad:
            continue
        try:
            trace, blocks = _audited(os.path.join(out_dir, f"wmmse_seed{seed}.csv"))
            rates = _read_rows(os.path.join(out_dir, f"wmmse_rates_seed{seed}.csv"),
                               RATES_HEADER)
            if len(rates) != len(trace.records):
                raise ArtifactError(f"wmmse seed {seed}: rates and trace differ in length")
            for rec, block, row in zip(trace.records, blocks, rates):
                objective, rate, violation = (_exact_float(v) for v in row[1:])
                if objective != rec.objective:
                    raise ArtifactError(f"wmmse seed {seed}: rates CSV objective differs")
                if violation > POWER_TOL:
                    raise ArtifactError(f"wmmse seed {seed} iter {rec.iteration}: "
                                        f"power budget exceeded by {violation:.3e}")
                if block == "0" and abs(-objective - rate) > RATE_IDENTITY_TOL:
                    raise ArtifactError(f"wmmse seed {seed} iter {rec.iteration}: "
                                        "objective is not minus the sum rate")
            if finals.get(str(seed)) != _exact_float(rates[-1][2]):
                raise ArtifactError(f"wmmse seed {seed}: summary final rate differs")
        except ArtifactError as exc:
            outcome.fail(str(exc))
            continue
        outcome.work_units += len(trace.records)


def _check_em(config, out_dir, summary, bad, outcome):
    finals = summary.get("final", {})
    for mode in config["params"]["modes"]:
        for seed in config["seeds"]:
            if (mode, seed) in bad:
                continue
            try:
                trace, _ = _audited(os.path.join(out_dir, f"em_{mode}_seed{seed}.csv"))
                entry = finals.get(mode, {}).get(str(seed), {})
                if (entry.get("nll") != trace.final_objective
                        or entry.get("iterations") != trace.n_iterations):
                    raise ArtifactError(f"em {mode} seed {seed}: summary differs from trace")
            except ArtifactError as exc:
                outcome.fail(str(exc))
                continue
            outcome.work_units += len(trace.records)


def _check_verify(config, out_dir, summary, expected_reports, outcome):
    report = _load_json(os.path.join(out_dir, "verify_report.json"))
    entries = [r for reports in report.values() for r in reports]
    if len(entries) != expected_reports:
        outcome.fail(f"verify wrote {len(entries)} reports, expected {expected_reports}",
                     max(expected_reports - len(entries), 0))
    for entry in entries:
        outcome.work_units += int(entry["n_samples"])
        if not entry["passed"] or entry["n_violations"] != 0:
            outcome.fail(f"verify {entry['check']}: {entry['n_violations']} violations")
    if summary.get("all_passed") is not (outcome.failed == 0):
        outcome.fail("verify summary all_passed disagrees with the report")


def _errored_tasks(summary: dict) -> set:
    return {(e.get("mode"), e.get("seed")) for e in summary.get("errors", [])}


def check_invocation(experiment: str, config: dict, out_dir: str, exit_code: int,
                     tasks: int) -> Outcome:
    """Check one invocation's artifacts; ``tasks`` is how many it attempted."""
    outcome = Outcome(attempted=tasks)
    for root, _, files in os.walk(out_dir):
        for name in files:
            outcome.artifact_files += 1
            outcome.artifact_bytes += os.path.getsize(os.path.join(root, name))
    if exit_code != 0:
        outcome.fail(f"exit code {exit_code}", tasks)
        return outcome
    try:
        summary = _load_json(os.path.join(out_dir, "summary.json"))
        bad = _errored_tasks(summary)
        for e in summary.get("errors", []):
            outcome.fail(f"solver error: {e}")
        if experiment == "cp":
            _check_cp(config, out_dir, summary, bad, outcome)
        elif experiment == "wmmse":
            _check_wmmse(config, out_dir, summary, bad, outcome)
        elif experiment == "em":
            _check_em(config, out_dir, summary, bad, outcome)
        else:
            _check_verify(config, out_dir, summary, tasks, outcome)
    except ArtifactError as exc:
        outcome.fail(str(exc), tasks - outcome.failed)
    outcome.failed = min(outcome.failed, tasks)
    return outcome
