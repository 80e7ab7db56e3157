"""Every entry point the pipeline benchmark traces still exists.

``benchmarks/pipeline/trace.py`` wraps ``repro`` functions and methods by
name (its ``TARGETS``) and fails the traced benchmark run when one has
been deleted or moved. This test resolves each target the way its
``install`` does, without wrapping anything, so such a change fails
here first. The file is loaded by path under a private module name: as
``trace`` it would shadow the standard library module of that name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = (Path(__file__).resolve().parent.parent
         / "benchmarks" / "pipeline" / "trace.py")


def _load_trace():
    spec = importlib.util.spec_from_file_location(
        "_pipeline_benchmark_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_trace().TARGETS


def test_targets_are_listed():
    assert TARGETS
    assert all(":" in target for _, target in TARGETS)


@pytest.mark.parametrize(
    "name, target", TARGETS, ids=[target for _, target in TARGETS])
def test_target_resolves(name, target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        owner = getattr(module, class_name)
        # install() replaces the method found in the class's own
        # namespace; an inherited one would be wrapped on the wrong class.
        assert callable(owner.__dict__[method]), name
    else:
        assert callable(getattr(module, attr)), name
