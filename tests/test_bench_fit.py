"""The benchmark under bench/ still fits the package: the tracer's patch
targets resolve, and the checker parses the trace CSV the CLI writes."""

import contextlib
import importlib.util
import io
import json
import os
import sys

from bsumkit import app_tensor, cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def bench_module(name):
    """bench/NAME.py, imported by path as ``bench_NAME``."""
    if f"bench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                      os.path.join(BENCH, f"{name}.py"))
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[f"bench_{name}"]


def test_tracer_installs_and_uninstalls():
    """Every attribute the tracer wraps exists, and uninstalling restores it."""
    tracer = bench_module("tracing").Tracer()
    tracer.install()
    patches = list(tracer._patches)
    tracer.uninstall()
    assert patches
    for owner, attr, own, original in patches:
        assert getattr(owner, attr) is original
        assert own or attr not in vars(owner)


def test_traced_cli_run_parses_with_the_checker(tmp_path):
    """A cp run under the tracer writes a trace CSV that ``check.read_trace``
    reads back into the run's iterations and objectives."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"params": {"modes": ["als"], "max_iters": 5}}))
    out = tmp_path / "out"
    minimize = app_tensor.CpSurrogate.minimize
    tracer = bench_module("tracing").Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.run(cli.main, ["cp", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert app_tensor.CpSurrogate.minimize is minimize
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "app_tensor.run_cp", "engine.run_bsum", "surrogate.minimize"} <= names

    trace, blocks = bench_module("check").read_trace(str(out / "cp_als_seed0.csv"))
    [record] = json.loads((out / "summary.json").read_text())["tasks"]
    assert trace.n_iterations == record["iterations"] == 5
    assert trace.final_objective == record["objective"]
    assert blocks == ["0", "1", "2", "0", "1"]
