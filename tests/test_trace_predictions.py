"""The benchmark's layer predictions hold on the library itself.

`perfbench/tracer.py` names, per workload, the layers a pass must reach
(`ACTIVE`: calls > 0) and the layers it must never reach (`IDLE`: 0 calls);
a traced benchmark run rejects its result when one fails. Here one pass of
each workload runs under the tracer, the cli's commands through `cli.main`
in this process, so a change that routes work around a traced layer fails
in the test suite too. Each job's output from
that traced pass is also checked against `perfbench/expected.json`, as a
benchmark worker checks it, so a change that crashes under the tracer or
changes output bytes fails here as well. Only reads `perfbench/`.
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
        import common
        import tracer
        import workloads

        yield common, tracer, workloads
    finally:
        sys.path.remove(PERFBENCH)
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["localize", "tilt", "relations", "cli"])
def test_layer_predictions_hold(bench, workload):
    common, tracer, workloads = bench
    job_list = workloads.jobs(workload, 0)
    tr = tracer.Tracer()
    tr.install()
    try:
        outputs = [job.call() for job in job_list]
    finally:
        tr.uninstall()
    expected = common.load_expected()
    problems = [
        common.job_problem(job.key, job.problem(out), job.canon(out), expected)
        for job, out in zip(job_list, outputs)
    ]
    assert [p for p in problems if p] == []
    calls = tr.layer_metrics(1.0)["_calls"]
    idle_reached = {layer: calls[layer] for layer in tracer.IDLE[workload] if calls.get(layer)}
    assert [layer for layer in tracer.ACTIVE[workload] if not calls.get(layer)] == []
    assert idle_reached == {}
