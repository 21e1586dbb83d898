"""Rebuild expected.json: the SHA-256 of every catalogued job's canonical output.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right: the digests it
writes are the references the benchmark's fail_frac is measured against. It
refuses to record a job whose output breaks an invariant (a failed verdict,
det != +-1, a wrong exit code).
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED, SRC, digest

sys.path.insert(1, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    # the table is rebuilt whole, so keys no seed produces any more drop out
    table = {}
    bad = []
    for name in list(workloads.WORKLOADS) + ["baseline"]:
        jobs = workloads.catalogue(name)
        for job in jobs:
            out = job.call()
            problem = job.problem(out)
            if problem:
                bad.append(f"{job.key}: {problem}")
                continue
            table[job.key] = digest(job.canon(out))
        print(f"{name}: {len(jobs)} jobs", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
