"""End-to-end benchmark of the bsumkit CLI.

Run from the repository root:

    python3 bench/run.py --workload cp_swamp --seed 0 --seconds 30 --trace 0

``--trace 0`` runs cold CLI invocations, one after another (closed loop,
one client), each in a fresh interpreter with the default environment
(``BSUM_THREADS`` unset unless the workload sets it), for about ``--seconds`` seconds, checks every
invocation's artifacts and reports the end-to-end metrics as medians over
the invocations. ``--trace 1`` runs invocations in-process through
``cli.main``, alternating untraced and traced ones, and reports the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
machine details included, goes to ``.bench_runs/<workload>_seed<seed>_trace<t>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

MIN_INVOCATIONS = 3      # fewer would make the median a single sample
MIN_TRACED = 2           # the named counts must repeat across two traced runs
HARD_STOP_S = 120.0      # stop starting invocations after this, whatever --seconds says
CHILD_TIMEOUT_S = 150.0

THREAD_VARS = ("BSUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "work_units": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.cpu_per_wall": "ratio",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.artifact_files": "count",
    "engine.iters": "count",
    "engine.self_us_per_iter": "us",
    "engine.schedule_next.calls": "count",
    "core.value_at.calls": "count",
    "core.value_at.s": "s",
    "core.with_part.calls": "count",
    "core.with_part.s": "s",
    "surrogate.minimize.calls": "count",
    "surrogate.minimize.s": "s",
    "surrogate.value.calls": "count",
    "surrogate.value.s": "s",
    "surrogate.value_per_minimize": "ratio",
    "app_tensor.cp_residual.calls": "count",
    "app_tensor.residual_per_iter.als": "ratio",
    "app_tensor.residual_per_iter.const_prox": "ratio",
    "app_tensor.residual_per_iter.dim_prox": "ratio",
    "app_tensor.residual_per_iter.mbi": "ratio",
    "app_tensor.residual_per_iter.misum": "ratio",
    "app_tensor.als_factor_update.s": "s",
    "app_tensor.lambda_value.s": "s",
    "app_wmmse.ms_per_halfstep": "ms",
    "app_wmmse.mmse_receiver.s": "s",
    "app_wmmse.mse_matrix.s": "s",
    "app_wmmse.update_transmitters.s": "s",
    "app_wmmse.sum_rate.s": "s",
    "app_wmmse.cov_per_user_halfstep": "ratio",
    "app_classic.ms_per_iter": "ms",
    "app_classic.gmm_nll.calls": "count",
    "app_classic.gmm_nll.s": "s",
    "verify.check_tightness.s": "s",
    "verify.check_upper_bound.s": "s",
    "verify.check_first_order_match.s": "s",
    "verify.check_composite_smooth.s": "s",
    "verify.value_at_per_sample": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def machine_record(numpy, scipy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


class Bench:
    def __init__(self, args, workload, run_dir, env):
        self.args = args
        self.workload = workload
        self.run_dir = run_dir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _config(self, i: int) -> tuple[dict, str]:
        out_dir = os.path.join(self.run_dir, f"inv{i}")
        config = self.workload.config(self.args.seed, out_dir)
        path = os.path.join(self.run_dir, f"inv{i}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return config, path

    def _checked(self, config: dict, code: int):
        from check import check_invocation

        outcome = check_invocation(self.workload.experiment, config,
                                   config["output_dir"], code, self.workload.tasks())
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems[:5])
        return outcome

    def _keep_last(self, i: int) -> None:
        previous = os.path.join(self.run_dir, f"inv{i - 1}")
        if i > 0 and os.path.isdir(previous):
            shutil.rmtree(previous)

    def _more(self, t0: float, durations: list, minimum: int) -> bool:
        now = time.monotonic()
        if now - t0 > HARD_STOP_S:
            return False
        if len(durations) < minimum:
            return True
        return now + _median(durations) <= t0 + self.args.seconds

    # ------------------------------------------------------- untraced

    def _cold(self, path: str, setup_only: bool = False):
        cmd = [sys.executable, os.path.join(HERE, "invoke.py"), path]
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, -1
        lines = proc.stdout.strip().splitlines()
        try:
            timing = json.loads(lines[-1])
        except (IndexError, ValueError):
            timing = None
        if proc.returncode != 0 and proc.stderr:
            self.problems.append(proc.stderr.strip().splitlines()[-1])
        if timing is not None:
            timing["setup_s"] = timing["t_ready"] - t_spawn
            timing["wall_s"] = timing["t_done"] - timing["t_ready"]
        return timing, proc.returncode

    def untraced(self) -> tuple[dict, list]:
        # One set-up-only start first: it compiles the sources to bytecode
        # and warms the file cache, as any earlier use would.
        _, path = self._config(0)
        self._cold(path, setup_only=True)
        samples, durations = [], []
        t0 = time.monotonic()
        i = 0
        while self._more(t0, durations, MIN_INVOCATIONS):
            config, path = self._config(i)
            t_start = time.monotonic()
            timing, code = self._cold(path)
            outcome = self._checked(config, code)
            durations.append(time.monotonic() - t_start)
            if timing is not None and outcome.failed == 0:
                samples.append({
                    "setup_s": timing["setup_s"],
                    "wall_s": timing["wall_s"],
                    "work_units": outcome.work_units,
                    "work_per_s": outcome.work_units / timing["wall_s"],
                    "peak_rss_mb": timing["maxrss_kb"] / 1024.0,
                })
            self._keep_last(i)
            i += 1
        metrics = {name: {"value": _median([s[name] for s in samples]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        return metrics, samples

    # --------------------------------------------------------- traced

    def _in_process(self, config: dict, path: str, tracer=None):
        from bsumkit import cli

        argv = [config["experiment"], "--config", path]
        sink = io.StringIO()
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.monotonic()
        with contextlib.redirect_stdout(sink):
            code = tracer.run(cli.main, argv) if tracer is not None else cli.main(argv)
        wall = time.monotonic() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
        return code, wall, cpu

    def traced(self) -> tuple[dict, dict]:
        import tracing

        plain, traced, reports, counted = [], [], [], []
        durations = []
        t0 = time.monotonic()
        i = 0
        while self._more(t0, durations, MIN_TRACED):
            t_start = time.monotonic()
            config, path = self._config(i)
            code, wall, cpu = self._in_process(config, path)
            outcome = self._checked(config, code)
            plain.append({"wall_s": wall, "cpu_per_wall": cpu / wall,
                          "artifact_bytes": outcome.artifact_bytes,
                          "artifact_files": outcome.artifact_files})
            self._keep_last(i)
            i += 1

            config, path = self._config(i)
            tracer = tracing.Tracer()
            code, wall, _ = self._in_process(config, path, tracer)
            outcome = self._checked(config, code)
            samples = outcome.work_units if self.workload.experiment == "verify" else 0
            layer = tracing.per_layer_metrics(tracer.spans, samples)
            traced.append({"wall_s": wall, **layer})
            reports.append(tracing.layer_table(tracer.spans, wall))
            counted.append({k: v for k, v in layer.items()
                            if PER_LAYER_UNITS[k] == "count"})
            del tracer
            self._keep_last(i)
            i += 1
            durations.append(time.monotonic() - t_start)

        if any(c != counted[0] for c in counted[1:]):
            self.failed += self.workload.tasks()
            self.problems.append("per-layer counts differ between traced invocations")
        values = {
            "cli.cpu_per_wall": _median([p["cpu_per_wall"] for p in plain]),
            "cli.artifact_bytes": _median([p["artifact_bytes"] for p in plain]),
            "cli.artifact_files": _median([p["artifact_files"] for p in plain]),
            "trace.wall_s": _median([t["wall_s"] for t in traced]),
            "trace.overhead_s": (_median([t["wall_s"] for t in traced])
                                 - _median([p["wall_s"] for p in plain])),
        }
        for name in PER_LAYER_UNITS:
            if name not in values:
                values[name] = _median([t[name] for t in traced])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        report = {"untraced_wall_s": [p["wall_s"] for p in plain],
                  "traced_wall_s": [t["wall_s"] for t in traced],
                  "layers": reports}
        return metrics, report


def _print_layers(report: dict) -> None:
    wall = _median(report["traced_wall_s"])
    print(f"traced wall {wall:.4f} s, untraced {_median(report['untraced_wall_s']):.4f} s, "
          f"tracing overhead {wall - _median(report['untraced_wall_s']):+.4f} s")
    print(f"{'layer':<12} {'time_s':>10} {'self_s':>10} {'calls':>10} {'share':>8}")
    last = report["layers"][-1]
    for layer, row in last.items():
        print(f"{layer:<12} {row['time_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{row['calls']:>10d} {row['share_of_wall']:>8.3f}")


def _print_end_to_end(workload, metrics: dict, samples: list, bench: Bench) -> None:
    solver = workload.experiment != "verify"
    names = {"work_per_s": "iters_per_s" if solver else "samples_per_s",
             "work_units": "solver_iters" if solver else "check_samples"}
    print(f"{len(samples)} invocations checked, {bench.attempted} tasks")
    for name, m in metrics.items():
        q = _quartiles([s[name] for s in samples])
        label = names.get(name, name)
        print(f"  {label:<14} {m['value']:>14.6g} {m['unit']:<6} "
              f"(quartiles {q[0]:.6g} .. {q[2]:.6g})")
    frac = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_frac':<14} {frac:>14.6g} ratio  ({bench.failed} of {bench.attempted} tasks)")


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run each workload at a size of about a second (self-test)")
    p.add_argument("--bsum-threads", type=int, default=None,
                   help="set BSUM_THREADS for the invocations "
                        "(default: the workload's setting, mostly unset)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bsumkit", "cli.py")):
        print("bench: src/bsumkit not found; run from the root of a bsumkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import workloads

    machine = machine_record(numpy, scipy)
    workload = workloads.get(args.workload, tiny=args.tiny)
    run_dir = os.path.join(RUNS, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    os.environ.pop("BSUM_THREADS", None)
    threads = args.bsum_threads if args.bsum_threads is not None else workload.threads
    if threads is not None:
        os.environ["BSUM_THREADS"] = str(threads)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    bench = Bench(args, workload, run_dir, env)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "bsum_threads": os.environ.get("BSUM_THREADS"), "machine": machine}
    if args.trace:
        metrics, report = bench.traced()
        _print_layers(report)
        record["trace_report"] = report
    else:
        metrics, samples = bench.untraced()
        _print_end_to_end(workload, metrics, samples, bench)
        record["samples"] = samples
    for problem in bench.problems[:10]:
        print(f"problem: {problem}")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record.update(result, problems=bench.problems)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
