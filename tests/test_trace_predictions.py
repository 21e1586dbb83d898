"""The benchmark's layer predictions hold on the library itself.

`perfbench/tracer.py` names, per workload, the layers a pass must reach
(`ACTIVE`: calls > 0) and the layers it must never reach (`IDLE`: 0 calls);
a traced benchmark run rejects its result when one fails. Here one pass of
each in-process workload runs under the tracer, so a change that routes work
around a traced layer fails in the test suite too. Only reads `perfbench/`.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
BENCH_MODULES = ("common", "tracer", "workloads")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import workloads

        yield tracer, workloads
    finally:
        sys.path.remove(PERFBENCH)
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["localize", "tilt", "relations"])
def test_layer_predictions_hold(bench, workload):
    tracer, workloads = bench
    tr = tracer.Tracer()
    tr.install()
    try:
        for job in workloads.jobs(workload, 0):
            job.call()
    finally:
        tr.uninstall()
    calls = tr.layer_metrics(1.0)["_calls"]
    idle_reached = {layer: calls[layer] for layer in tracer.IDLE[workload] if calls.get(layer)}
    assert [layer for layer in tracer.ACTIVE[workload] if not calls.get(layer)] == []
    assert idle_reached == {}
