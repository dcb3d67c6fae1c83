"""Tests for the experiment runner: config checks, artifacts, summaries."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsumkit import app_classic, app_tensor, app_wmmse, cli, problems
from bsumkit.cli import (
    EXPERIMENTS,
    VERIFY_TARGETS,
    ConfigError,
    iterations_to_threshold,
    main,
    run_experiment,
    summarize,
    validate_config,
)
from bsumkit.core import RngStream, Trace, TraceRecord
from bsumkit.engine import SolveOptions


def descending_trace(objectives):
    """Trace with one record per objective, iteration numbers 1, 2, ..."""
    t = Trace(initial_objective=float(objectives[0]) + 1.0)
    for i, v in enumerate(objectives, start=1):
        t.append(TraceRecord(iteration=i, block=0, objective=float(v)))
    return t


class TestSummarize:
    def test_single_trace_of_ten_iterations(self):
        """One run crossing the threshold at iteration 10: mean = median = 10."""
        trace = descending_trace([float(10 - i) for i in range(1, 11)])
        hit = iterations_to_threshold(trace, 0.5)
        assert hit == 10
        out = summarize({"als": [hit]})
        assert out["als"]["mean"] == 10.0
        assert out["als"]["median"] == 10.0
        assert out["als"] == {"count": 1, "converged": 1, "censored": 0,
                              "mean": 10.0, "median": 10.0, "min": 10, "max": 10}

    def test_two_runs_mean(self):
        """Counts [10, 20] average to 15."""
        out = summarize({"m": [10, 20]})
        assert out["m"]["mean"] == 15.0
        assert out["m"]["median"] == 15.0
        assert out["m"]["min"] == 10
        assert out["m"]["max"] == 20

    def test_censored_run_excluded_from_mean(self):
        """A non-converged run is counted as censored, not averaged."""
        out = summarize({"m": [10, None, 30]})
        assert out["m"]["count"] == 3
        assert out["m"]["converged"] == 2
        assert out["m"]["censored"] == 1
        assert out["m"]["mean"] == 20.0

    def test_all_censored_has_no_mean(self):
        out = summarize({"m": [None, None]})
        assert out["m"] == {"count": 2, "converged": 0, "censored": 2}

    def test_keys_sorted(self):
        out = summarize({"b": [1], "a": [2]})
        assert list(out) == ["a", "b"]

    def test_threshold_is_strict(self):
        """A record exactly at the threshold does not count as crossing."""
        trace = descending_trace([1.0, 0.5, 0.25])
        assert iterations_to_threshold(trace, 0.5) == 3

    def test_never_crossing_returns_none(self):
        trace = descending_trace([3.0, 2.0, 1.0])
        assert iterations_to_threshold(trace, 0.5) is None


class TestValidateConfig:
    def test_defaults_filled(self):
        cfg = validate_config({"experiment": "toy"})
        assert cfg["seeds"] == [0]
        assert cfg["output_dir"] == "bsumkit_runs"
        assert cfg["params"]["solver"] == "prox"
        assert cfg["params"]["max_iters"] == 200

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config({"experiment": "nope"})

    def test_unknown_config_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            validate_config({"experiment": "toy", "threads": 4})

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            validate_config({"experiment": "toy", "params": {"alpha": 1.0}})

    @pytest.mark.parametrize("seeds", [[-1], [True], "0", [], [1.5], [1, 1]])
    def test_bad_seeds(self, seeds):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "toy", "seeds": seeds})

    def test_param_types_enforced(self):
        with pytest.raises(ConfigError, match="max_iters"):
            validate_config({"experiment": "toy", "params": {"max_iters": "many"}})
        with pytest.raises(ConfigError, match="tol"):
            validate_config({"experiment": "toy", "params": {"tol": True}})

    def test_numbers_coerced_to_float(self):
        cfg = validate_config({"experiment": "toy", "params": {"tol": 1}})
        assert cfg["params"]["tol"] == 1.0
        assert isinstance(cfg["params"]["tol"], float)

    def test_cp_file_instance_needs_path(self):
        with pytest.raises(ConfigError, match="tensor_file"):
            validate_config({"experiment": "cp", "params": {"instance": "file"}})

    def test_cp_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config({"experiment": "cp", "params": {"modes": ["sgd"]}})

    def test_cp_bad_rank_and_epsilon(self):
        with pytest.raises(ConfigError, match="rank"):
            validate_config({"experiment": "cp", "params": {"rank": 0}})
        with pytest.raises(ConfigError, match="epsilon"):
            validate_config({"experiment": "cp", "params": {"epsilon": 0.0}})

    def test_toy_unknown_solver(self):
        with pytest.raises(ConfigError, match="solver"):
            validate_config({"experiment": "toy", "params": {"solver": "newton"}})

    def test_verify_unknown_surrogate(self):
        with pytest.raises(ConfigError, match="surrogate"):
            validate_config({"experiment": "verify",
                             "params": {"surrogate": "mystery"}})

    def test_positivity_checks(self):
        with pytest.raises(ConfigError, match="max_iters"):
            validate_config({"experiment": "wmmse", "params": {"max_iters": 0}})
        with pytest.raises(ConfigError, match="tol"):
            validate_config({"experiment": "wmmse", "params": {"tol": -1.0}})


class TestRunExperiment:
    def test_unknown_experiment_exits_2(self, capsys):
        assert run_experiment({"experiment": "nope"}) == 2
        assert "config error" in capsys.readouterr().out

    def test_schema_error_names_the_line(self, capsys):
        raw = '{\n  "experiment": "cp",\n  "params": {"rank": 0}\n}\n'
        assert run_experiment(json.loads(raw), raw) == 2
        out = capsys.readouterr().out
        assert "(line 3)" in out
        assert "rank" in out

    def test_toy_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = {"experiment": "toy", "seeds": [0],
                  "params": {"max_iters": 60}, "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        csv = (out_dir / "toy_prox_seed0.csv").read_text()
        assert csv.splitlines()[0] == "iter,block,objective,step_size,elapsed_ns"
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["experiment"] == "toy"
        assert summary["config"]["seeds"] == [0]
        assert summary["tasks"][0]["status"] == "converged"

    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        """17-significant-digit cells parse back to the recorded doubles."""
        out_dir = tmp_path / "out"
        config = {"experiment": "toy", "seeds": [0],
                  "params": {"max_iters": 60}, "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        oracle = problems.toy_trace("prox", SolveOptions(max_iters=60, tol=1e-8))
        rows = (out_dir / "toy_prox_seed0.csv").read_text().splitlines()[1:]
        assert len(rows) == len(oracle.records)
        for row, rec in zip(rows, oracle.records):
            it, block, obj, step, ns = row.split(",")
            assert int(it) == rec.iteration
            assert block == "0"
            assert float(obj) == rec.objective
            assert int(ns) == 0

    def test_cp_rerun_is_byte_identical(self, tmp_path):
        """The same config reproduces every artifact byte for byte."""
        config = {"experiment": "cp", "seeds": [0, 1],
                  "params": {"instance": "random", "dims": [2, 2, 2], "rank": 1,
                             "modes": ["als"], "max_iters": 300},
                  "output_dir": ""}
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            config["output_dir"] = str(out_dir)
            assert run_experiment(dict(config)) == 0
            blobs.append({f: (out_dir / f).read_bytes()
                          for f in sorted(os.listdir(out_dir))})
        assert sorted(blobs[0]) == ["cp_als_seed0.csv", "cp_als_seed1.csv",
                                    "cp_instance.txt", "summary.json"]
        assert blobs[0] == blobs[1]

    def test_cp_summary_recomputable_from_csvs(self, tmp_path):
        """Summary statistics follow from the CSV objective columns alone."""
        out_dir = tmp_path / "out"
        config = {"experiment": "cp", "seeds": [0, 1],
                  "params": {"instance": "random", "dims": [2, 2, 2], "rank": 1,
                             "modes": ["als"], "max_iters": 300, "epsilon": 1e-5},
                  "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        counts = []
        for seed in (0, 1):
            rows = (out_dir / f"cp_als_seed{seed}.csv").read_text().splitlines()[1:]
            hit = None
            for row in rows:
                cells = row.split(",")
                if float(cells[2]) < 1e-5:
                    hit = int(cells[0])
                    break
            counts.append(hit)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["iterations_to_threshold"] == summarize({"als": counts})

    def test_em_bad_data_exits_3(self, tmp_path, capsys):
        """A solver failure is reported per run and flips the exit code: three
        components on two observations, one of which loses all its mass."""
        data = tmp_path / "data.txt"
        data.write_text("0.0\n1.0\n")
        out_dir = tmp_path / "out"
        config = {"experiment": "em", "seeds": [0],
                  "params": {"data_file": str(data), "n_components": 3,
                             "modes": ["full"]},
                  "output_dir": str(out_dir)}
        assert run_experiment(config) == 3
        assert "solver error" in capsys.readouterr().out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["errors"]) == 1
        assert summary["errors"][0]["seed"] == 0

    def test_verify_proximal_reports_zero_violations(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = {"experiment": "verify", "seeds": [0],
                  "params": {"surrogate": "proximal", "n_samples": 200,
                             "n_anchors": 12},
                  "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        report = json.loads((out_dir / "verify_report.json").read_text())
        assert set(report) == {"proximal"}
        for blob in report["proximal"]:
            assert blob["n_violations"] == 0
        assert "proximal.tightness: PASS" in capsys.readouterr().out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["all_passed"] is True

    def test_verify_report_bits_are_pinned(self, tmp_path):
        """The battery's report at a small size keeps its bytes; a sampler
        refactor that moves a single draw changes this hash."""
        out_dir = tmp_path / "out"
        config = {"experiment": "verify", "seeds": [0],
                  "params": {"n_samples": 50, "n_anchors": 12},
                  "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        blob = (out_dir / "verify_report.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "dff61c97e6220777e11144a5d191dd5b4173de2ab9c66c4f496e1b4cc5d1f484")

    def test_wmmse_artifacts(self, tmp_path):
        out_dir = tmp_path / "out"
        config = {"experiment": "wmmse", "seeds": [0],
                  "params": {"max_iters": 60}, "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        trace_rows = (out_dir / "wmmse_seed0.csv").read_text().splitlines()
        rate_rows = (out_dir / "wmmse_rates_seed0.csv").read_text().splitlines()
        assert rate_rows[0] == "iter,objective,sum_rate_nats,max_power_violation"
        assert len(rate_rows) == len(trace_rows)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "0" in summary["final_sum_rate_nats"]


class TestMain:
    def test_toy_flags(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["toy", "--out", str(out_dir), "--max-iters", "40"]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["params"]["max_iters"] == 40

    def test_seed_range(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["toy", "--seeds", "0..2", "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["seeds"] == [0, 1, 2]
        for seed in (0, 1, 2):
            assert (out_dir / f"toy_prox_seed{seed}.csv").exists()

    def test_seed_comma_list(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["toy", "--seeds", "3,5", "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["seeds"] == [3, 5]

    def test_backwards_seed_range_exits_2(self, capsys):
        assert main(["toy", "--seeds", "5..2"]) == 2
        assert "bad seed range" in capsys.readouterr().out

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "experiment": oops\n}\n')
        assert main(["toy", "--config", str(path)]) == 2
        assert "invalid JSON at line 2" in capsys.readouterr().out

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["toy", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().out

    def test_experiment_filled_from_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"max_iters": 30},
                                   "output_dir": str(tmp_path / "out")}))
        assert main(["toy", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["experiment"] == "toy"

    def test_cp_tensor_file_flag(self, tmp_path):
        """--tensor-file switches the instance source to the given file."""
        a = np.array([1.0, 2.0])
        tensor = app_tensor.DenseTensor3(
            np.einsum("i,j,k->ijk", a, np.array([1.0, 0.5]), np.array([1.0, 3.0])))
        tensor_path = tmp_path / "t.txt"
        app_tensor.write_tensor(str(tensor_path), tensor)
        out_dir = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"modes": ["als"], "rank": 1,
                                              "max_iters": 300},
                                   "seeds": [0], "output_dir": str(out_dir)}))
        assert main(["cp", "--config", str(cfg),
                     "--tensor-file", str(tensor_path)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["params"]["instance"] == "file"
        assert summary["iterations_to_threshold"]["als"]["converged"] == 1
        assert not (out_dir / "cp_instance.txt").exists()

    def test_cp_theta_flag_and_instance_export(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"modes": ["als"], "max_iters": 50},
                                   "seeds": [0], "output_dir": str(out_dir)}))
        assert main(["cp", "--config", str(cfg), "--theta", "0.5"]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["params"]["theta"] == 0.5
        exported = app_tensor.read_tensor(str(out_dir / "cp_instance.txt"))
        expected = app_tensor.build_swamp_instance(0.5)
        np.testing.assert_allclose(exported.values, expected.values, rtol=0, atol=0)


class TestWorkerPool:
    def test_serial_cap_runs(self, tmp_path):
        out_dir = tmp_path / "out"
        config = {"experiment": "wmmse", "seeds": [0, 1],
                  "params": {"max_iters": 40}, "output_dir": str(out_dir)}
        assert run_experiment(config) == 0
        assert (out_dir / "wmmse_seed0.csv").exists()
        assert (out_dir / "wmmse_seed1.csv").exists()

    def test_wmmse_rerun_byte_identical(self, tmp_path):
        """Two runs of one wmmse config write the same bytes."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"n_cells": 2, "users_per_cell": 2,
                                              "n_antennas": 3, "streams": 2,
                                              "max_iters": 60},
                                   "seeds": [0, 1]}))
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["wmmse", "--config", str(cfg), "--out", str(out_dir)]) == 0
            blobs.append({f: (out_dir / f).read_bytes() for f in sorted(os.listdir(out_dir))})
        assert len(blobs[0]) == 5
        assert blobs[0] == blobs[1]

    def test_only_em_runs_on_threads(self, tmp_path, monkeypatch):
        """cp, wmmse and toy run serially; em's pool leaves its artifacts as
        a serial run writes them. BSUM_THREADS has no say."""
        built = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv("BSUM_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def run(experiment, params, out):
            return run_experiment({"experiment": experiment, "params": params,
                                   "seeds": [0, 1], "output_dir": str(tmp_path / out)})

        assert run("cp", {"modes": ["als", "mbi"], "max_iters": 5}, "cp") == 0
        assert run("wmmse", {"max_iters": 5}, "wmmse") == 0
        assert run("toy", {"max_iters": 5}, "toy") == 0
        assert built == []
        em = {"modes": ["full", "block"], "n_per_cluster": 50, "max_iters": 5}
        assert run("em", em, "em_pooled") == 0
        assert built == [4]  # min(os.cpu_count(), 4 tasks)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run("em", em, "em_serial") == 0
        assert built == [4]
        pooled = sorted(os.listdir(tmp_path / "em_pooled"))
        assert pooled == sorted(os.listdir(tmp_path / "em_serial"))
        for name in pooled:
            assert ((tmp_path / "em_pooled" / name).read_bytes()
                    == (tmp_path / "em_serial" / name).read_bytes())

    def test_name_hash_is_stable(self):
        assert cli.hash_name("ab") == 1 * ord("a") + 2 * ord("b")
        assert cli.hash_name("proximal") == cli.hash_name("proximal")


# Bad params that once ended in a traceback or exit 3; each must exit 2 with
# a config error naming the key. This test file stands in for a data file
# that is not numeric.
ABSENT = os.path.join(os.path.dirname(__file__), "no_such_data.txt")
BAD_PARAMS = [
    ("em", {"data_file": ABSENT}, "data_file"),
    ("em", {"data_file": __file__}, "data_file"),
    ("em", {"centers": ["a"]}, "centers"),
    ("em", {"centers": [1.0]}, "centers"),
    ("wmmse", {"n_antennas": 0}, "n_antennas"),
    ("wmmse", {"streams": 3}, "streams"),
    ("wmmse", {"n_cells": 0}, "n_cells"),
    ("wmmse", {"noise_power": -1}, "noise_power"),
    ("cp", {"theta": math.nan}, "theta"),
    ("cp", {"lam": -1, "modes": ["const_prox"]}, "lam"),
    ("verify", {"n_anchors": 0, "n_samples": 5}, "n_anchors"),
    ("cp", {"modes": ["als", "als"]}, "modes"),
    ("cp", {"modes": []}, "modes"),
    ("em", {"modes": ["full", "full"]}, "modes"),
    ("em", {"modes": []}, "modes"),
]


def run_cli(experiment, params, seeds, tmp, out_dir="out"):
    """Exit code and stdout of ``bsumkit EXPERIMENT --config tmp/cfg.json
    --out tmp/OUT_DIR``."""
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        json.dump({"params": params, "seeds": seeds}, fh, indent=1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([experiment, "--config", path, "--out", os.path.join(tmp, out_dir)])
    return code, out.getvalue()


@pytest.mark.parametrize("experiment,params,key", BAD_PARAMS)
def test_bad_params_exit_2(tmp_path, experiment, params, key):
    code, out = run_cli(experiment, params, [0], str(tmp_path))
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("config error")]
    assert len(errors) == 1 and key in errors[0]


def test_em_non_finite_data_file_exits_2(tmp_path):
    """A data file holding nan is bad input, as a bad tensor_file is."""
    data = tmp_path / "data.txt"
    data.write_text("1.0\nnan\n2.0\n")
    code, out = run_cli("em", {"data_file": str(data)}, [0], str(tmp_path))
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("config error")]
    assert len(errors) == 1 and "data_file" in errors[0] and "non-finite" in errors[0]


def test_em_data_file_whose_variance_overflows_exits_2(tmp_path, capsys):
    """Finite values whose variance overflows are bad input too, refused
    before any task runs and without a numpy warning."""
    data = tmp_path / "data.txt"
    data.write_text("0\n1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("em", {"data_file": str(data)}, [0], str(tmp_path))
    assert code == 2
    assert out.splitlines() == ["config error (line 3): data_file's variance overflows"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("params,line", [({"centers": [-1e200, 1e200], "sigma": 1.0}, 3),
                                         ({"centers": [-5.0, 5.0], "sigma": 1e300}, 7)])
def test_em_generated_data_whose_variance_overflows_exits_2(tmp_path, capsys, params, line):
    """Centers or sigma so large that a drawn sample's variance overflows are
    bad input, as such a data_file is: refused before any task runs, at the
    line of the key that spreads the sample."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("em", params, [0, 1], str(tmp_path))
    assert code == 2
    assert out.splitlines() == [f"config error (line {line}): the sample drawn from "
                                "centers and sigma's variance overflows"]
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("out_dir", ["cfg.json", os.path.join("cfg.json", "sub")])
def test_output_dir_naming_a_file_exits_2(tmp_path, out_dir):
    """An output_dir that is a file, or lies under one, is bad input."""
    code, out = run_cli("toy", {}, [0], str(tmp_path), out_dir)
    assert code == 2
    assert out.startswith("config error: cannot create output_dir: ")
    assert out.count("\n") == 1


def test_repeated_seed_exits_2(tmp_path):
    """A seed listed twice would run its tasks and write their files twice."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cp", "--seeds", "2,0,2", "--out", str(tmp_path / "out")])
    assert (code, out.getvalue()) == (2, "config error: seeds must not repeat\n")
    assert not (tmp_path / "out").exists()
    assert run_cli("cp", {"max_iters": 3}, [1, 1], str(tmp_path)) == (
        2, "config error (line 5): seeds must not repeat\n")


@pytest.mark.parametrize("text", ["", "0.5\n"])
def test_em_data_file_of_fewer_than_two_values_exits_2(tmp_path, capsys, text):
    """EM needs two observations; a shorter data file is bad input, not a
    solver failure. The config error is all the run prints: reading an
    empty file raises no warning."""
    data = tmp_path / "data.txt"
    data.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli("em", {"data_file": str(data)}, [0], str(tmp_path))
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("config error")]
    assert len(errors) == 1 and "data_file" in errors[0] and "two observations" in errors[0]
    assert out.splitlines() == errors
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--max-iters", "5"]])
def test_verify_refuses_solver_knobs(tmp_path, flag):
    """The battery runs no solver, so verify has no max_iters or tol to set."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *flag, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown parameter" in out.getvalue()


def test_battery_jobs_are_the_verify_targets():
    assert tuple(cli._verify_jobs(0)) == VERIFY_TARGETS


@pytest.mark.parametrize("name", VERIFY_TARGETS)
def test_battery_job_minimizes_every_block(name):
    """Each battery job is a surrogate a driver can run: its minimize gives
    the anchor with a finite argmin in place of the block, for every block
    at a sampled anchor."""
    u, _, space = cli._verify_jobs(0)[name]
    y = space.sample_points(RngStream(0).generator(), 1)[0]
    for block in range(space.structure.n_blocks):
        z, value = u.minimize(block, y)
        assert z.structure == y.structure
        assert np.isfinite(z.part(block)).all() and np.isfinite(value)
        others = [i for i in range(space.structure.n_blocks) if i != block]
        assert all((z.part(i) == y.part(i)).all() for i in others)


@pytest.mark.parametrize("power", [1e8, 1e10])
def test_wmmse_large_power_budget_exits_0(tmp_path, power):
    """init_transmitters' rounding at a large budget is no violation."""
    code, out = run_cli("wmmse", {"power": power, "max_iters": 4}, [0, 1, 2, 3],
                        str(tmp_path))
    assert code == 0, out


def test_wmmse_unbracketable_budget_exits_3(tmp_path):
    """A failed power bisection is a solver error naming the half-step and cells."""
    code, out = run_cli("wmmse", {"noise_power": 1e-125, "power": 1e-125, "max_iters": 10},
                        [0], str(tmp_path))
    assert code == 3, out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["errors"] == [{"seed": 0, "error": "iteration 2: power bisection "
                                  "failed to bracket the budget of cells [0, 1]"}]
    # The failed task has no record and no final rate: it shows only as an error.
    assert summary["tasks"] == [] and summary["final_sum_rate_nats"] == {}


def test_wmmse_budget_too_large_names_the_halfstep(tmp_path):
    """A budget of 1e300 breaks the first receiver half-step's log-det; the
    error names the half-step."""
    code, out = run_cli("wmmse", {"power": 1e300, "max_iters": 10}, [0], str(tmp_path))
    assert code == 3, out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [e["error"] for e in summary["errors"]] == [
        "iteration 1: matrix is not positive definite"]


def test_cp_singular_gram_names_the_iteration(tmp_path):
    """Rank 3 on an all-ones 2x2x2 tensor: ALS's first update makes the next
    factor's Gram matrix singular, and the error names iteration 2."""
    tensor = tmp_path / "ones.txt"
    tensor.write_text("2 2 2\n" + "1 1\n" * 4)
    code, out = run_cli("cp", {"instance": "file", "tensor_file": str(tensor), "modes": ["als"],
                               "rank": 3, "epsilon": 1e-300}, [0], str(tmp_path))
    assert code == 3, out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    [error] = summary["errors"]
    assert error["error"].startswith("iteration 2: gram matrix is numerically singular")


def library_trace(experiment, p, mode, seed):
    """The trace of the library call that the CLI makes for one task, from
    the validated params ``p``; cp reads the instance the run exported."""
    opts = SolveOptions(max_iters=p["max_iters"], tol=p["tol"],
                        target_objective=p.get("epsilon"))
    if experiment == "cp":
        tensor = app_tensor.read_tensor(os.path.join("out", "cp_instance.txt"))
        return app_tensor.run_cp(tensor, p["rank"], mode=mode, opts=opts, rng=RngStream(seed),
                                 lam=p["lam"], lam0=p["lam0"], lam1=p["lam1"])[1]
    if experiment == "wmmse":
        spec = app_wmmse.NetworkSpec.build(
            n_cells=p["n_cells"], users_per_cell=p["users_per_cell"],
            n_antennas=p["n_antennas"], streams=p["streams"],
            noise_power=p["noise_power"], power=p["power"])
        H = app_wmmse.gen_channels(spec, RngStream(seed))
        V0 = app_wmmse.init_transmitters(spec, RngStream(seed).substream(1))
        return app_wmmse.run_wmmse(spec, H, V0, opts)[1]
    if experiment == "em":
        data = (np.loadtxt(p["data_file"]) if p["data_file"] is not None
                else app_classic.two_cluster_dataset(RngStream(seed), p["n_per_cluster"],
                                                     tuple(p["centers"]), p["sigma"]))
        return app_classic.em_gmm(data, p["n_components"], mode=mode, opts=opts)[1]
    return problems.toy_trace(mode, opts)


# Tiny runs of each experiment. The data file holds a spike of equal values,
# so the em fits clamp a variance and carry warnings.
RECORD_RUNS = [
    ("cp", {"instance": "random", "dims": [2, 3, 2], "rank": 2, "max_iters": 40}),
    ("cp", {"instance": "swamp", "theta": math.pi / 4, "modes": ["als"], "max_iters": 300}),
    ("wmmse", {"max_iters": 12}),
    ("em", {"n_per_cluster": 40, "max_iters": 30}),
    ("em", {"data_file": "data.txt", "max_iters": 30}),
    *[("toy", {"solver": solver, "max_iters": 30}) for solver in problems.TOY_SOLVERS],
]


@pytest.mark.parametrize("experiment,params", RECORD_RUNS)
def test_task_records_match_traces(tmp_path, monkeypatch, experiment, params):
    """Each task's record in summary.json holds its trace CSV's row count and
    last objective, and the status, stationarity gap and warnings of the
    trace the library returns for it; the gap is null only where the driver
    computes none (BSCA)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text("\n".join(["-2.5", "-2.0", "-1.5", "-1.0"] + ["3.0"] * 6))
    config = {"experiment": experiment, "params": params, "seeds": [0, 1], "output_dir": "out"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_experiment(config) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    p = validate_config(config)["params"]
    modes = p.get("modes", [p.get("solver")])
    assert [(r["mode"], r["seed"]) for r in summary["tasks"]] == [
        (mode, seed) for mode in modes for seed in (0, 1)]
    assert summary["errors"] == []
    for rec in summary["tasks"]:
        tag = f"seed{rec['seed']}" if rec["mode"] is None else f"{rec['mode']}_seed{rec['seed']}"
        rows = (tmp_path / "out" / f"{experiment}_{tag}.csv").read_text().splitlines()[1:]
        assert rec["iterations"] == len(rows)
        assert rec["objective"] == float(rows[-1].split(",")[2])
        trace = library_trace(experiment, p, rec["mode"], rec["seed"])
        assert (rec["status"], rec["stationarity_gap"], rec["warnings"]) == (
            trace.terminal_status, trace.stationarity_gap, trace.warnings)
        assert (rec["stationarity_gap"] is None) == (rec["mode"] == "bsca")
    if experiment == "em" and p["data_file"] is not None:
        assert all(rec["warnings"] for rec in summary["tasks"])


# Bounds that keep each generated run well under a second.
SIZE_BOUNDS = {"max_iters": 5, "n_per_cluster": 50, "n_samples": 20, "n_anchors": 5,
               "rank": 3, "n_cells": 3, "users_per_cell": 3, "n_antennas": 3,
               "streams": 3, "n_components": 3}
# Keys whose defaults exceed those bounds, so every example sets them.
REQUIRED = {"max_iters", "n_per_cluster", "n_samples", "n_anchors", "dims"}
JUNK = st.sampled_from([None, "x", [], [[1, [2.0]], "a"], {"k": 1}, math.nan,
                        math.inf, -math.inf, -1, 0, -0.5, 0.0, True])


def well_typed(key, kind, default, choices=()):
    if kind == "count":
        return st.integers(1, SIZE_BOUNDS[key])
    if kind in ("num", "pos", "nonneg"):
        return st.floats(-10.0, 10.0) | st.floats(1e-12, 1.0)
    if kind == "str":  # tensor_file, data_file
        return st.sampled_from([__file__, ABSENT])
    if kind == "choice":
        # Every value the table offers, and one outside the set.
        one = st.sampled_from([*choices, "other"])
        return st.lists(one, max_size=3) if isinstance(default, list) else one
    if key == "dims":
        return st.lists(st.integers(0, 3), max_size=4)
    return st.lists(st.floats(-5.0, 5.0), max_size=3)  # centers


def params_for(experiment):
    """Well-typed params, with junk in place of at most one of them."""
    table = cli._PARAM_TABLES[experiment]
    values = {key: well_typed(key, *entry) for key, entry in table.items()}
    good = st.fixed_dictionaries(
        {k: v for k, v in values.items() if k in REQUIRED},
        optional={k: v for k, v in values.items() if k not in REQUIRED})
    junk = st.dictionaries(st.sampled_from(sorted(table)), JUNK, max_size=1)
    return st.builds(lambda p, j: {**p, **j}, good, junk)


CONFIGS = st.one_of([st.tuples(st.just(e), params_for(e)) for e in EXPERIMENTS])
SEEDS = st.lists(st.integers(0, 3), min_size=1, max_size=2)


def with_bad_params_examples(test):
    for experiment, params, _ in BAD_PARAMS:
        test = example((experiment, params), [0], "out")(test)
    return test


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@with_bad_params_examples
@example(("toy", {"max_iters": 3}), [0], "cfg.json")  # output_dir names the config file
@example(("toy", {"max_iters": 3}), [0], os.path.join("cfg.json", "sub"))
@example(("toy", {"max_iters": 3}), [1, 1], "out")  # a repeated seed
@given(CONFIGS, SEEDS, st.just("out"))
def test_cli_exits_0_2_or_3(config, seeds, out):
    """Whatever the params, seeds and output directory, the CLI returns an
    exit code and raises nothing."""
    experiment, params = config
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = run_cli(experiment, params, seeds, tmp, out)
    assert code in (0, 2, 3)


# Runs in a fresh interpreter: imports the CLI, then runs every experiment at
# a tiny size, and reports the scipy modules the import loaded and the
# numpy submodules each run imported first.
COLD_START = """
import contextlib, io, json, os, sys
from bsumkit import cli, problems
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
runs = [("cp", {"max_iters": 3}), ("wmmse", {"max_iters": 3}),
        ("em", {"n_per_cluster": 50, "max_iters": 3}),
        ("verify", {"n_samples": 20, "n_anchors": 5})]
runs += [("toy", {"solver": s, "max_iters": 3}) for s in problems.TOY_SOLVERS]
first = {}
for k, (experiment, params) in enumerate(runs):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_experiment({"experiment": experiment, "params": params, "seeds": [0],
                                   "output_dir": os.path.join(sys.argv[1], str(k))})
    new = sorted(m for m in set(sys.modules) - before if m.startswith("numpy."))
    if code or new:
        first[experiment + " " + params.get("solver", "")] = [code, new]
print(json.dumps({"scipy": scipy, "first_imports": first}))
"""


def test_cold_start_imports_no_scipy_and_runs_import_no_numpy_submodule(tmp_path):
    """numpy loads some submodules (numpy.random, numpy.ma) on first use;
    doing that inside a run costs it 20-40 ms, so the package imports them
    up front. scipy is no runtime dependency and stays unimported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"scipy": [], "first_imports": {}}
