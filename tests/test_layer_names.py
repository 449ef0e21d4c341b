"""The benchmark's per-layer names must stay callable in polymat.

``perfbench/run.py`` lists the functions it reports per layer in
``LAYER_FUNCTIONS`` and ``perfbench/tracing.py`` the methods it wraps in
``METHODS``.  Both are read with ``ast``, so nothing under ``perfbench``
is imported.  The tracer wraps only public functions defined in their own
module, so a module-level name must be one.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def constant(filename, name):
    """The literal value assigned to ``name`` at the top of a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {filename}")


LAYER_FUNCTIONS = constant("run.py", "LAYER_FUNCTIONS")
METHODS = constant("tracing.py", "METHODS")


def test_names_were_read():
    assert "resolution.matrix_rank" in LAYER_FUNCTIONS
    assert ("resolution", "SimplicialComplex", "reduced_homology_ranks") in METHODS


@pytest.mark.parametrize("name", LAYER_FUNCTIONS)
def test_layer_function_is_callable(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"polymat.{module_name}")
    obj = module
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj), name
    if len(path) == 1:
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name


@pytest.mark.parametrize("module_name, cls_name, method", METHODS)
def test_traced_method_is_callable(module_name, cls_name, method):
    cls = getattr(importlib.import_module(f"polymat.{module_name}"), cls_name)
    assert callable(cls.__dict__[method])
