"""One traced pass of each benchmark workload (perfbench/).

The benchmark looks up betheq functions by name and checks every output
of a pass: installing the tracer resolves each name in its SPANNED and
COUNTED tables, and the pass reads every module attribute the workloads
use.  A raise, even one EXPECTED_FAILURES allows, a check that does not
hold, or a digest of an exact output that differs from digests.json fails
here before it makes a benchmark run incorrect.  The test records no
digests and writes no trace file.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


# exact-identities with seed None runs every Schur partition that has a
# recorded digest
@pytest.mark.parametrize("name, seed", [("exact-identities", None),
                                        ("certified-roots", 0),
                                        ("wavefunction-oracle", 0)])
def test_traced_pass_is_correct(perfbench, name, seed):
    workloads, spans = perfbench
    work = workloads.WORKLOADS[name](seed)
    work.setup()
    tally = workloads.Tally(name)
    tracer = spans.Tracer()
    tracer.install()
    try:
        work.run_pass(tally)
    finally:
        tracer.uninstall()
    assert tally.attempted and tracer.spans
    assert (tally.failed, tally.wrong) == (0, 0), list(tally.failures.values())
    assert workloads.oracle_problems() == []
