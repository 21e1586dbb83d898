"""Time the cells of the ROADMAP baseline table with the benchmark's harness.

    python3 perfbench/baseline.py

Each of three passes runs every cell once, in order, in a fresh worker;
outputs are checked against expected.json like any workload's. Prints one
markdown row per cell: the ROADMAP figure, then the median and range of the unscaled
times here, then the median scaled to the reference speed (see
common.probe). The result is kept in BASELINE.md as a one-off record.
"""

from __future__ import annotations

import statistics
import sys

from common import pin_cpu
from run import one_pass

PASSES = 3

# ROADMAP baseline table: single wall-clock runs, Python 3.11.7
ROADMAP_S = {
    "localization d=7 r=3 samples=3 seed=0": 1.2,
    "localization d=8 r=4 samples=3 seed=0": 12.7,
    "tilting d=8 r=4": 1.85,
    "tilting d=9 r=4": 6.8,
    "euler d=8 r=4": 0.20,
    "euler d=9 r=4": 0.27,
    "k_matrix d=7 r=3 from=2 to=-2": 0.02,
    "k_matrix d=8 r=4 from=2 to=-2": 0.15,
    "relations d=7 r=3": 1.2,
    "relations d=8 r=4": 5.0,
}


def main() -> int:
    pin_cpu()
    times: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for _ in range(PASSES):
        res = one_pass("baseline", seed=0)
        if res is None:
            print("baseline pass crashed", file=sys.stderr)
            return 1
        for key, latency, problem, raw in res["jobs"]:
            if problem:
                print(problem, file=sys.stderr)
                return 1
            times.setdefault(key, []).append(raw)
            scaled.setdefault(key, []).append(latency)
    print("| cell | ROADMAP | median here | min–max here | here / ROADMAP | median scaled |")
    print("|---|---|---|---|---|---|")
    for key, ts in times.items():
        med = statistics.median(ts)
        ref = ROADMAP_S[key]
        print(
            f"| `{key}` | {ref:.2f} s | {med:.3f} s | {min(ts):.3f}–{max(ts):.3f} s "
            f"| {med / ref:.2f} | {statistics.median(scaled[key]):.3f} s |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
