"""The benchmark looks up betheq functions by name: the tracer's tables and
the workloads' module attributes must all resolve, or a benchmark run
(perfbench/run.py) breaks."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_spanned_and_counted_names_resolve(spans):
    names = list(spans.SPANNED) + list(spans.COUNTED)
    assert names
    for module, attr in names:
        mod = importlib.import_module(f"betheq.{module}")
        assert callable(getattr(mod, attr, None)), f"betheq.{module}.{attr}"


BETHEQ_MODULES = ("bethe", "cli", "conjectures", "ed", "qfunctions")


def test_workload_attributes_resolve():
    """Every betheq.<module>.<name> that perfbench/workloads.py reads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in BETHEQ_MODULES}
    assert {module for module, _ in used} == set(BETHEQ_MODULES)
    for module, attr in sorted(used):
        mod = importlib.import_module(f"betheq.{module}")
        assert hasattr(mod, attr), f"betheq.{module}.{attr}"


def test_groundstate_takes_the_workload_hint():
    from betheq import ed

    assert "shift_hint" in inspect.signature(ed.groundstate).parameters
