"""schurwin benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload localize|tilt|relations|cli \\
        --seed N --seconds S --trace 0|1

One client, closed loop: each pass over the workload's job list runs in a
fresh interpreter (worker.py), and the next job starts only after the last
one returned. Passes repeat until `--seconds` is spent, at least four.

Every latency is scaled to a reference speed by the probes the harness runs
around each job (see common.probe): the machines are shared and their speed
drifts by tens of percent.

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of the sum of the pass's job latencies
  job_p50_s    median job latency, all passes pooled
  job_tail_s   highest of p99/p95/p90/p75 with >= 10 pooled samples beyond it
               at the planned minimum of four passes
  setup_s      median time from starting a worker to its first job being ready
  peak_rss_mb  median own peak RSS (VmHWM) of a pass's worker, or for cli
               of its largest CLI call
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.LAYER_METRICS, after checking the layer predictions and
that two traced passes made the same calls.

Every job's output is checked (reference digest and invariants); the last
stdout line is the JSON result. A job whose output is wrong, or that crashed
or timed out, counts in `failed`; fail_frac = failed / attempted is printed
above the result, since a metric that is 0 on a correct run has no spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from time import perf_counter

from common import (
    BENCH_DIR,
    EXPECTED,
    ROOT,
    SRC,
    cli_canonical,
    cli_problem,
    job_problem,
    library_present,
    load_expected,
    loadavg,
    pin_cpu,
    probe,
    python_argv,
    run_child,
    run_cli,
    scaled,
)

WORKLOADS = ("localize", "tilt", "relations", "cli")
MIN_PASSES = 4
TAIL_PERCENTILES = (99, 95, 90, 75)
HARD_LIMIT_S = 150.0  # stop starting passes here, whatever --seconds says
PASS_TIMEOUT_S = 120.0
CLI_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest listed percentile with at least ten samples beyond it when the
    run makes its minimum number of passes. workloads.py fixes the number of
    jobs per pass, so the percentile is fixed per workload and the metric
    means the same thing in every run."""
    n = jobs_per_pass * MIN_PASSES
    return next(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10)


def quantile(values, p: int) -> float:
    """The p-th percentile, linear between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_cli_jobs(specs, expected):
    """Run the CLI calls of one pass as subprocesses, one after another.
    Returns the job rows (key, scaled latency, problem, unscaled latency),
    the scaled and unscaled pass times, and the largest child's peak RSS."""
    rows, peak, raw_wall = [], 0.0, 0.0
    before = probe()
    for key, argv, expect_exit in specs:
        out, code, t0, t1, rss = run_cli(argv, CLI_TIMEOUT_S)
        after = probe()
        problem = job_problem(
            key, cli_problem(argv, out, code, expect_exit), cli_canonical(out, code), expected
        )
        rows.append([key, scaled(t1 - t0, before, after), problem, t1 - t0])
        raw_wall += t1 - t0
        peak = max(peak, rss)
        before = after
    return rows, sum(row[1] for row in rows), raw_wall, peak


def one_pass(workload, seed, trace=0, inprocess=False, expected_path=EXPECTED):
    """Run one pass in a fresh worker; returns its record, or None if the
    worker crashed or timed out."""
    argv = python_argv(
        BENCH_DIR / "worker.py", "--workload", workload, "--seed", seed,
        "--trace", trace, "--expected", expected_path,
    )
    if inprocess:
        argv.append("--inprocess")
    before = probe()
    out, code, start, _ = run_child(argv, PASS_TIMEOUT_S)
    lines = out.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        print(f"pass failed: worker exit code {code}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["setup_s"] = scaled(res["ready"] - start, before, res["probe"])
    res["raw_setup_s"] = res["ready"] - start
    if "cli" in res:
        res["jobs"], res["wall"], res["raw_wall"], res["rss_mb"] = run_cli_jobs(
            res["cli"], load_expected(expected_path)
        )
    return res


def jobs_per_pass(passes) -> int:
    """Length of the job list, from the first pass that completed; 1 if none did."""
    return next((len(p["jobs"]) for p in passes if p is not None), 1)


def tally(passes):
    """(attempted, failed, problems) over a run's passes; a crashed pass
    counts as a whole pass of failed jobs."""
    attempted = failed = 0
    problems = []
    per_pass = jobs_per_pass(passes)
    for p in passes:
        if p is None:
            attempted += per_pass
            failed += per_pass
            problems.append("a pass crashed")
            continue
        if len(p["jobs"]) != per_pass:
            problems.append(f"a pass ran {len(p['jobs'])} jobs, not {per_pass}")
        for _, _, problem, _ in p["jobs"]:
            attempted += 1
            if problem:
                failed += 1
                problems.append(problem)
    return attempted, failed, problems


def run_passes(make_pass, seconds, min_passes):
    """Closed loop: start the next pass only while it fits in `seconds`."""
    t_begin = perf_counter()
    passes, durations = [], []
    while True:
        t0 = perf_counter()
        passes.append(make_pass(len(passes)))
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - t_begin
        est = statistics.median(durations)
        if elapsed + est > HARD_LIMIT_S:
            break
        if len(passes) >= min_passes and elapsed + est > seconds:
            break
    return passes


def end_to_end(workload, seed, seconds):
    passes = run_passes(lambda i: one_pass(workload, seed), seconds, MIN_PASSES)
    attempted, failed, problems = tally(passes)
    ok = [p for p in passes if p is not None]
    metrics = {}
    notes = []
    if ok:
        lat = [row[1] for p in ok for row in p["jobs"]]
        pct = tail_percentile(jobs_per_pass(ok))
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in ok),
            "job_p50_s": statistics.median(lat),
            "job_tail_s": quantile(lat, pct),
            "setup_s": statistics.median(p["setup_s"] for p in ok),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in ok),
        }
        notes.append(
            f"passes {len(passes)}; latency samples {len(lat)}; "
            f"job_tail_s is p{pct} ({len(lat) - int(len(lat) * pct / 100)} samples beyond it)"
        )
        notes.append(
            "unscaled medians: wall_s %.6g s, setup_s %.6g s"
            % (
                statistics.median(p["raw_wall"] for p in ok),
                statistics.median(p["raw_setup_s"] for p in ok),
            )
        )
    units = dict(END_TO_END_UNITS)
    return metrics, units, attempted, failed, problems, notes


def check_trace_accounting(workload, traced):
    """Layer predictions hold, and every traced pass made the same calls."""
    from tracer import ACTIVE, IDLE

    problems = []
    calls = traced[0]["layers"]["_calls"]
    for layer in ACTIVE[workload]:
        if calls.get(layer, 0) == 0:
            problems.append(f"trace: {layer} predicted active on {workload}, 0 calls")
    for layer in IDLE[workload]:
        if calls.get(layer, 0) != 0:
            problems.append(f"trace: {layer} predicted idle on {workload}, {calls[layer]} calls")
    counted = [k for k in traced[0]["layers"] if k.endswith((".calls", "terms_out", "bytes_out"))]
    for p in traced[1:]:
        if p["layers"]["_calls"] != calls or any(
            p["layers"][k] != traced[0]["layers"][k] for k in counted
        ):
            problems.append("trace: call counts differ between two traced passes")
            break
    return problems


def per_layer(workload, seed, seconds):
    from tracer import LAYER_METRICS

    # even passes untraced, odd passes traced; cli jobs run via cli.main in both
    inprocess = workload == "cli"
    passes = run_passes(
        lambda i: one_pass(workload, seed, trace=i % 2, inprocess=inprocess),
        seconds,
        MIN_PASSES,
    )
    attempted, failed, problems = tally(passes)
    plain = [p for i, p in enumerate(passes) if i % 2 == 0 and p is not None]
    traced = [p for i, p in enumerate(passes) if i % 2 == 1 and p is not None]
    notes = [f"passes {len(passes)}: {len(plain)} untraced, {len(traced)} traced"]
    if len(traced) < 2 or not plain:
        problems.append("trace: fewer than two traced passes completed")
        return {}, dict(LAYER_METRICS), attempted, max(failed, 1), problems, notes
    problems += check_trace_accounting(workload, traced)
    first = traced[0]["layers"]
    metrics = {}
    for name in LAYER_METRICS:
        if name.endswith("self_s") or name == "trace.coverage_frac":
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        elif name in first:
            metrics[name] = first[name]
    plain_wall = statistics.median(p["wall"] for p in plain)
    metrics["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / plain_wall - 1
    metrics["cli.startup_s"] = cli_startup_s() if workload == "cli" else 0.0
    return metrics, dict(LAYER_METRICS), attempted, failed, problems, notes


def cli_startup_s(repeats: int = 3) -> float:
    """Median wall time of a `schurwin --version` subprocess."""
    times = []
    for _ in range(repeats):
        _, _, t0, t1, _ = run_cli(["--version"], CLI_TIMEOUT_S)
        times.append(t1 - t0)
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout if it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the library's files, so a run names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "schurwin").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not library_present():
        print(f"run.py: no schurwin library under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    env = {
        "cpu": pin_cpu(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": loadavg(),
    }
    measure = per_layer if args.trace else end_to_end
    metrics, units, attempted, failed, problems, notes = measure(args.workload, args.seed, args.seconds)
    env["loadavg_end"] = loadavg()

    for problem in problems:
        print(problem, file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6g} frac ({failed} of {attempted} jobs)")
    correct = not problems and len(metrics) == len(units)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
