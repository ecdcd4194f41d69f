"""The layer functions the benchmark names must exist in ``src/``.

The traced benchmark run rebinds every ``TRACED`` name in
``perfbench/spans.py`` with ``getattr``, and ``perfbench/workloads.py``
calls the library through its module attributes. Both files are read as
source here, never imported, so a function deleted or renamed in ``src/``
fails this test instead of crashing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the fpbits modules that workloads.py imports and calls through
WORKLOAD_MODULES = ("pipeline", "template_io", "model_store", "synth", "matching")


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def traced_names():
    """``(layer, name)`` for every function ``spans.TRACED`` lists."""
    for node in ast.walk(_parse("spans.py")):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            traced = ast.literal_eval(node.value)
            return sorted((layer, name) for layer, names in traced.items() for name in names)
    raise AssertionError("perfbench/spans.py has no TRACED assignment")


def workload_names():
    """``(module, attribute)`` for every ``<module>.<attribute>`` in workloads.py."""
    found = {
        (node.value.id, node.attr)
        for node in ast.walk(_parse("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in WORKLOAD_MODULES
    }
    return sorted(found)


TRACED_NAMES = traced_names()
WORKLOAD_NAMES = workload_names()


def test_the_lists_are_not_empty():
    assert len(TRACED_NAMES) > 10
    assert {module for module, _ in WORKLOAD_NAMES} == set(WORKLOAD_MODULES)


@pytest.mark.parametrize("layer, name", TRACED_NAMES,
                         ids=[f"{layer}.{name}" for layer, name in TRACED_NAMES])
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"fpbits.{layer}"), name, None))


@pytest.mark.parametrize("module, name", WORKLOAD_NAMES,
                         ids=[f"{module}.{name}" for module, name in WORKLOAD_NAMES])
def test_workload_attribute_exists(module, name):
    assert callable(getattr(importlib.import_module(f"fpbits.{module}"), name, None))
