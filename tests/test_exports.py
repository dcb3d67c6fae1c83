"""Every exported name resolves, removed helpers stay removed, and no
public name is exported that nothing in the package uses unless it is
listed below with its reason."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import bsumkit

MODULES = ["bsumkit", "bsumkit.core", "bsumkit.engine", "bsumkit.surrogates",
           "bsumkit.verify", "bsumkit.problems", "bsumkit.app_tensor",
           "bsumkit.app_wmmse", "bsumkit.app_classic", "bsumkit.cli"]

REMOVED = ["proximal_minimize", "dc_minimize", "forward_backward_step",
           "block_forward_backward_step", "directional_derivative_fd",
           "check_quasiconvexity", "DcProblem", "logdet_surrogate",
           "AffineLogdetSurrogate", "affine_logdet_family", "ArmijoParams",
           "ConvexPartOracle"]

# Exported names that no code in src/ reads, each kept on purpose.
UNREFERENCED_BY_DESIGN = {
    "__version__",  # package metadata
    # wrapped by the benchmark tracer (bench/tracing.py) as per-layer spans
    "gmm_nll", "lambda_value", "mmse_receiver", "mse_matrix", "sum_rate",
    "update_transmitters",
    "audit_trace",  # the README's documented trace audit
    "ball", "nonnegative", "khatri_rao",  # stand-alone primitives
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_removed_helpers_not_exported():
    assert set(REMOVED).isdisjoint(bsumkit.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_removed_helpers_absent_from_every_module(name):
    module = importlib.import_module(name)
    assert [n for n in REMOVED if hasattr(module, n)] == []


def test_solve_options_has_no_record_trace():
    assert not hasattr(bsumkit.SolveOptions(), "record_trace")


def test_schedule_is_a_list_of_groups():
    assert not hasattr(bsumkit.SolveOptions(), "schedule")
    for name in ("kind", "max_improvement", "period_length", "validate"):
        assert not hasattr(bsumkit.Schedule, name)
    assert [f.name for f in dataclasses.fields(bsumkit.Schedule)] == [
        "n_blocks", "groups", "period"]


def test_solve_options_fields():
    assert [f.name for f in dataclasses.fields(bsumkit.SolveOptions)] == [
        "max_iters", "tol", "target_objective"]
    assert "elapsed_ns" not in [f.name for f in dataclasses.fields(bsumkit.TraceRecord)]


def test_no_driver_takes_a_feasible_start_check():
    from bsumkit import app_classic, app_wmmse, engine

    drivers = [engine.run_sum, engine.run_bsum, engine.run_misum, engine.run_bsca,
               app_wmmse.run_wmmse, app_classic.alternating_proximal_solve]
    assert [d.__name__ for d in drivers if "feasible" in inspect.signature(d).parameters] == []
    v0 = inspect.signature(app_wmmse.run_wmmse).parameters["V0"]
    assert v0.default is inspect.Parameter.empty


def test_locate_is_the_only_part_resolver():
    for name in ("normalize_part", "part_indices", "block_slice", "_indices", "_locate"):
        assert not hasattr(bsumkit.BlockStructure, name)
    assert "feasible" not in [f.name for f in dataclasses.fields(bsumkit.QuadraticApprox)]
    assert not hasattr(bsumkit.SolveOptions(), "armijo")
    checks = [bsumkit.verify.check_tightness, bsumkit.verify.check_upper_bound,
              bsumkit.verify.check_first_order_match, bsumkit.verify.check_composite_smooth]
    assert [(c.__name__, p) for c in checks for p in inspect.signature(c).parameters
            if p in ("tol", "steps", "tight_tol", "bound_tol")] == []


def test_no_module_reaches_into_block_structure_privates():
    src = pathlib.Path(bsumkit.__file__).parent
    hits = [f"{path.name}:{k}" for path in sorted(src.glob("*.py")) if path.name != "core.py"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"structure\._", line)]
    assert hits == []


def test_every_unreferenced_export_is_kept_on_purpose():
    """An AST scan of src/: the ``__all__`` names that no code there reads
    (as a name or an attribute) are exactly the allow-list."""
    exported, read = set(), set()
    for path in pathlib.Path(bsumkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= {e.value for e in node.value.elts}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert exported - read == UNREFERENCED_BY_DESIGN


def test_only_engine_reads_the_driver_loop_and_its_stop_rule():
    """An AST scan of src/: no module but ``engine`` reads ``_iterate`` or
    ``_Stall``, so every driver, WMMSE's included, runs engine's loop."""
    private = {"_iterate", "_Stall"}
    hits = []
    for path in sorted(pathlib.Path(bsumkit.__file__).parent.glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {getattr(node, "id", None), getattr(node, "attr", None)})
            hits += [f"{path.name}:{node.lineno}:{n}" for n in sorted(private & names)]
    assert hits == []


def test_test_only_members_are_gone():
    from bsumkit import app_tensor, app_wmmse, core, engine, problems

    assert [f.name for f in dataclasses.fields(bsumkit.FeasibleSetOracle)] == ["projection"]
    assert not hasattr(bsumkit.FeasibleSetOracle, "contains")
    assert not hasattr(core, "_MEMBER_TOL")
    assert not hasattr(bsumkit.SampleSpace, "sample_point")
    assert not hasattr(bsumkit.Point, "block")
    assert not hasattr(app_wmmse.NetworkSpec, "cell_users")
    assert not hasattr(problems.QuadraticProblem, "minimizer")
    assert list(inspect.signature(engine.armijo_step).parameters) == ["f", "x", "d", "fprime", "fx"]
    assert [f.name for f in dataclasses.fields(app_tensor.LambdaSchedule)] == [
        "lam0", "lam1"]


def test_one_evaluator_per_surrogate_and_objective():
    """A surrogate evaluates only through the stacked ``values``, writes u
    once (no per-point twin of it), and an oracle holds one callable per
    quantity, with no stacked twin."""
    from bsumkit import app_classic, app_tensor, core, engine, problems, surrogates

    classes = [cls for module in (surrogates, app_tensor, app_classic)
               for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == module.__name__]
    assert [c.__name__ for c in classes if inspect.isfunction(getattr(c, "value", None))] == []
    surrogate_classes = [c for c in classes if hasattr(c, "minimize")]
    assert {c.__name__ for c in surrogate_classes} == {
        "ExactBlockSurrogate", "ProximalSurrogate", "DcLinearization",
        "LipschitzQuadraticSurrogate", "QuadraticApprox", "CpSurrogate", "GmmJensenSurrogate"}
    assert [c.__name__ for c in surrogate_classes if not callable(getattr(c, "values", None))] == []
    assert [m for m in ("value", "minimize", "values")
            if hasattr(engine.BlockSurrogateOracle, m)] == ["minimize", "values"]
    assert [f.name for f in dataclasses.fields(bsumkit.ObjectiveOracle)] == ["value", "gradient"]
    assert [f.name for f in dataclasses.fields(bsumkit.DcLinearization)] == [
        "cvx_value", "cve_value", "cve_grad", "minimize_linear"]
    lasso = problems.lasso_problem(target=[1.0])[1]
    assert type(lasso.smooth_part()[0]) is bsumkit.QuadraticApprox
    assert [f"{c.__name__}.{m}" for c in classes if c.__module__ == surrogates.__name__
            for m in ("_bound", "_quadratic", "_quadratic_rows") if hasattr(c, m)] == []
    assert [c.__name__ for c in classes if hasattr(c, "_model")] == []
    twins = {"cve_values", "cve_grads", "nonsmooth_totals"}
    for cls in (bsumkit.DcLinearization, bsumkit.LipschitzQuadraticSurrogate):
        assert twins.isdisjoint(f.name for f in dataclasses.fields(cls))
    assert not hasattr(core, "_on_rows")


def test_no_module_guesses_a_start_point_from_array_flags():
    """An AST scan of src/: no module reads an array's ``.flags``. Facts
    about a point live on the ``Point``, so no layer guesses which vector
    is the start point from its flags."""
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted(pathlib.Path(bsumkit.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "flags"]
    assert hits == []


def test_quadratic_approx_keeps_no_anchor_cache():
    from bsumkit import problems

    h = bsumkit.QuadraticApprox(problems.QuadraticProblem(np.eye(1), np.ones(1)).objective(), 0.5)
    assert [f.name for f in dataclasses.fields(h)] == ["f", "t"]
    assert [n for n in ("anchor_gradient", "_last") if hasattr(h, n)] == []


def test_surrogates_keep_no_per_point_state(monkeypatch):
    """After a CP run and an EM run, each surrogate holds no ``Point`` and
    no array but those it was built with: its facts live on the points."""
    from bsumkit import app_classic, app_tensor

    def held(obj, out):
        # The Points and the ids of the arrays reachable through containers.
        if isinstance(obj, (list, tuple, set)):
            for item in obj:
                held(item, out)
        elif isinstance(obj, dict):
            held(list(obj.values()), out)
        elif isinstance(obj, bsumkit.Point):
            out["points"] += 1
        elif isinstance(obj, np.ndarray):
            out["arrays"].add(id(obj))
        return out

    built = []
    for module, name in ((app_tensor, "CpSurrogate"), (app_classic, "GmmJensenSurrogate")):
        class Recorded(getattr(module, name)):
            def __init__(self, *args):
                super().__init__(*args)
                built.append((self, held(vars(self), {"points": 0, "arrays": set()})))

        monkeypatch.setattr(module, name, Recorded)
    opts = bsumkit.SolveOptions(max_iters=5, tol=1e-15)
    tensor = app_tensor.build_swamp_instance(np.pi / 4)
    for mode in app_tensor.CP_MODES:
        app_tensor.run_cp(tensor, 3, mode=mode, opts=opts)
    data = app_classic.two_cluster_dataset(bsumkit.RngStream(1), n_per_cluster=50)
    for mode in app_classic.EM_MODES:
        app_classic.em_gmm(data, 2, mode=mode, opts=opts)
    assert len(built) == len(app_tensor.CP_MODES) + len(app_classic.EM_MODES)
    for u, at_build in built:
        assert held(vars(u), {"points": 0, "arrays": set()}) == at_build, type(u).__name__
