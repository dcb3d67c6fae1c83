"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/spread.py --workloads cp_swamp,em_large --seeds 0..9
    python3 bench/spread.py --seeds 0..9 --traced --out bench/BENCH_baseline.json

For every workload and end-to-end metric it prints the median over the
seeds, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, against the metric's bound in
BENCHMARK.json; a spread above a third of the bound is marked. With
``--traced`` it adds one traced run per workload (first seed). ``--out``
writes the whole record, with the machine details of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def _seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(ROOT, ".bench_runs",
                               f"{workload}_seed{seed}_trace{trace}", "result.json")
    with open(record_path) as fh:
        record = json.load(fh)
    return result, record


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = spread <= bound / 3
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="0..9")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    out = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, record = run_once(workload, seed, args.seconds, 0)
            out.setdefault("machine", record["machine"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs], bound)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["within_third_of_bound"] else "  <-- above a third of the bound"
            print(f"  {name:<12} median {s['median']:.6g} {s['unit']:<5} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bound}{flag}", flush=True)
        if args.traced:
            result, record = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], "correct": result["correct"],
                                  "metrics": result["metrics"],
                                  "report": record["trace_report"]}
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
