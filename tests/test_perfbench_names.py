"""The benchmark's tracer looks up betheq functions by name; every name it
lists must resolve, or a traced run (perfbench/run.py --trace 1) breaks."""

import importlib
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
