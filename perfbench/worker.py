"""One pass over a workload's job list, in a fresh interpreter.

Started by run.py once per pass, so no module cache outlives a pass. It
imports schurwin from the checkout, builds the seeded job list, notes the
moment the first job is ready, runs the jobs one after another, then checks
every output against its reference digest and invariants. The result is one
JSON line on stdout. For `cli` without --inprocess it only sets up and hands
the argument lists back: run.py then starts each CLI call itself, so no more
than two processes exist at a time.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from common import EXPECTED, OUT_DIR, SRC, job_problem, load_expected, peak_rss_mb, probe, scaled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inprocess", action="store_true", help="run CLI jobs via cli.main")
    parser.add_argument("--expected", default=str(EXPECTED))
    args = parser.parse_args()

    sys.path.insert(1, str(SRC))
    import schurwin

    if not schurwin.__file__.startswith(str(SRC)):
        sys.stderr.write(f"worker: schurwin loaded from {schurwin.__file__}, not {SRC}\n")
        return 2
    import workloads

    job_list = workloads.jobs(args.workload, args.seed)
    ready = perf_counter()
    before = probe()
    if args.workload == "cli" and not args.inprocess:
        specs = [[j.key, j.argv, j.expect_exit] for j in job_list]
        print(json.dumps({"ready": ready, "probe": before, "cli": specs}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first_probe = before
    results = []
    for i, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = i
        t0 = perf_counter()
        try:
            out, err = job.call(), None
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            out, err = None, f"{job.key}: raised {type(exc).__name__}: {exc}"
        raw = perf_counter() - t0
        after = probe()
        results.append((scaled(raw, before, after), raw, out, err))
        before = after
    rss_mb = peak_rss_mb()
    wall = sum(r[0] for r in results)
    raw_wall = sum(r[1] for r in results)

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(raw_wall)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}.bin")

    expected = load_expected(args.expected)
    rows = []
    for job, (latency, raw, out, err) in zip(job_list, results):
        if err is None:
            err = job_problem(job.key, job.problem(out), job.canon(out), expected)
        rows.append([job.key, latency, err, raw])
    print(
        json.dumps(
            {
                "ready": ready,
                "probe": first_probe,
                "wall": wall,
                "raw_wall": raw_wall,
                "rss_mb": rss_mb,
                "jobs": rows,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
