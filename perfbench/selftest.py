"""Self-test of the output checks behind fail_frac.

    python3 perfbench/selftest.py

For each workload it runs one pass against the true reference digests (no
job may fail), then one pass against a copy of expected.json in which one
digest of that pass is corrupted: exactly that job must be counted as failed.
Exit code 0 when both hold for every workload.
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED, OUT_DIR, load_expected
from run import WORKLOADS, one_pass, tally


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    corrupt_path = OUT_DIR / "expected-corrupted.json"
    errors = []
    for workload in WORKLOADS:
        clean = one_pass(workload, seed=0)
        attempted, failed, problems = tally([clean])
        if clean is None or failed:
            errors.append(f"{workload}: clean pass failed: {problems}")
            continue
        victim = clean["jobs"][0][0]
        table = load_expected(EXPECTED)
        table[victim] = "0" * 64
        corrupt_path.write_text(json.dumps(table))
        bad = one_pass(workload, seed=0, expected_path=corrupt_path)
        attempted, failed, problems = tally([bad])
        if failed != 1 or not problems[0].startswith(victim + ":"):
            errors.append(f"{workload}: corrupted {victim!r} gave {failed} failures: {problems}")
        else:
            print(f"{workload}: corrupted reference for {victim!r} counted as 1 of {attempted} failed")
    corrupt_path.unlink(missing_ok=True)
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
