"""Every exported name resolves, and removed helpers stay removed."""

import dataclasses
import importlib

import pytest

import bsumkit

MODULES = ["bsumkit", "bsumkit.core", "bsumkit.engine", "bsumkit.surrogates",
           "bsumkit.verify", "bsumkit.problems", "bsumkit.app_tensor",
           "bsumkit.app_wmmse", "bsumkit.app_classic", "bsumkit.cli"]

REMOVED = ["proximal_minimize", "dc_minimize", "forward_backward_step",
           "block_forward_backward_step", "directional_derivative_fd",
           "check_quasiconvexity", "DcProblem", "logdet_surrogate",
           "AffineLogdetSurrogate", "affine_logdet_family"]


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
