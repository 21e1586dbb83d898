"""Job lists of the four workloads, built from the workload seed.

A job is one verdict: one `verify_*` or `k_matrix` call, one sweep of
`general_shift` skeletons over a window, or one CLI invocation. Every job has
a key naming its inputs exactly; `expected.json` holds the SHA-256 of each
key's canonical output, and `catalogue()` lists every key any seed can
produce so that file can be rebuilt with `record_expected.py`.

How the seed is used. The amount of work in a localization call depends
strongly on its sample points: at (6,3) one call takes between 0.3 s and
0.6 s depending on its seed. So the localization calls use a fixed set of
sample seeds per cell, and the workload seed shuffles the job order and
picks the mutation sweeps' seeds, which are cheap. `tilt` and `relations`
have no seeded library inputs: the seed shuffles their job order (and the
generator order of a shift sweep). `cli` draws windows, base diagrams and
generators from small per-command sets. This keeps the work per pass
independent of the seed, so a change of seed does not read as a change of
speed.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from typing import Callable

from common import canonical_json, cli_canonical, cli_problem

# Jobs call the library through its module attributes at call time, so the
# wrappers a traced pass installs there see the benchmark's own calls too.
from schurwin import shifts, verify
from schurwin.partitions import Context
from schurwin.staircase import admissible_bases
from schurwin.windows import enumerate_window

WORKLOADS = ("localize", "tilt", "relations", "cli")
MUTATION_SEEDS = 16  # the mutation sweeps draw their seed from range(16)


@dataclass
class Job:
    key: str
    call: Callable[[], object]
    canon: Callable[[object], bytes]
    problem: Callable[[object], str | None]
    argv: list[str] | None = None  # CLI jobs: arguments after `schurwin`
    expect_exit: int = 0


# ---- output checks -------------------------------------------------------


def _report_canon(report) -> bytes:
    return canonical_json(report.to_json_obj())


def _report_problem(check: str):
    def problem(report) -> str | None:
        if report.check != check:
            return f"report names check {report.check!r}, expected {check!r}"
        if report.passed is not True:
            return f"{check} failed: {report.counterexample}"
        return None

    return problem


def _det(rows) -> int:
    """Integer determinant by fraction-free elimination, for the det = +-1 check."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _matrix_canon(mat) -> bytes:
    return canonical_json({"from": mat.from_k, "to": mat.to_k, "entries": mat.entries})


def _matrix_problem(ctx: Context):
    def problem(mat) -> str | None:
        n = comb(ctx.d, ctx.r)
        if len(mat.entries) != n or any(len(row) != n for row in mat.entries):
            return f"K-matrix is not {n} x {n}"
        det = _det(mat.entries)
        if det not in (1, -1):
            return f"K-matrix determinant {det}, expected +-1"
        return None

    return problem


def _sweep_canon(complexes) -> bytes:
    return canonical_json(
        [
            [tc.honest]
            + [
                [t.degree, list(t.label.delta.parts), t.label.det_power, t.ext_power, t.copies]
                for t in tc.terms
            ]
            for tc in complexes
        ]
    )


def _sweep_problem(complexes) -> str | None:
    if any(tc.honest for tc in complexes):
        return "a multi-step shift claims to be an honest complex"
    return None


# ---- job constructors ----------------------------------------------------


def _localization(d, r, seed) -> Job:
    ctx = Context(d, r)
    return Job(
        f"localization d={d} r={r} samples=3 seed={seed}",
        lambda: verify.verify_localization(ctx, samples=3, seed=seed),
        _report_canon,
        _report_problem("localization"),
    )


def _mutations(d, r, seed) -> Job:
    ctx = Context(d, r)
    return Job(
        f"mutations d={d} r={r} mutations=20 seed={seed}",
        lambda: verify.localization_mutation_sweep(ctx, mutations=20, seed=seed),
        _report_canon,
        _report_problem("localization-mutations"),
    )


def _suite(name, d, r) -> Job:
    ctx = Context(d, r)
    return Job(
        f"{name} d={d} r={r}",
        lambda: getattr(verify, f"verify_{name}")(ctx),
        _report_canon,
        _report_problem(name),
    )


def _kmatrix(d, r, k, l) -> Job:
    ctx = Context(d, r)
    return Job(
        f"k_matrix d={d} r={r} from={k} to={l}",
        lambda: shifts.k_matrix(ctx, k, l),
        _matrix_canon,
        _matrix_problem(ctx),
    )


def _shift_sweep(d, r, k, l, rng=None) -> Job:
    """Skeletons of every W_k generator shifted to W_l, in seeded order; the
    output is listed in basis order whatever order the calls ran in."""
    ctx = Context(d, r)
    basis = enumerate_window(ctx, k)
    order = list(range(len(basis)))
    if rng is not None:
        rng.shuffle(order)

    def call():
        out = [None] * len(basis)
        for i in order:
            out[i] = shifts.general_shift(ctx, k, l, basis[i])
        return out

    return Job(f"shift-sweep d={d} r={r} from={k} to={l}", call, _sweep_canon, _sweep_problem)


def _cli_in_process(argv):
    import schurwin.cli as cli  # attribute lookup at call time sees a traced main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return out.getvalue().encode(), code


def _cli(argv, expect_exit=0) -> Job:
    key = "cli " + " ".join(argv)
    return Job(
        key,
        lambda: _cli_in_process(argv),
        lambda res: cli_canonical(*res),
        lambda res: cli_problem(argv, res[0], res[1], expect_exit),
        argv=list(argv),
        expect_exit=expect_exit,
    )


# ---- workloads -----------------------------------------------------------

# (d, r) cells and fixed sample seeds of the localization calls: six cheap
# calls hold the median, four mid-sized ones the p75 tail, one (7,3) on top.
# The p75 falls just above the cheapest of the four, so that one (seed 0)
# runs twice: the tail then lies between two like jobs.
LOCALIZE_CELLS = [((6, 2), range(6)), ((6, 3), (0, 0, 1, 2)), ((7, 3), (0,))]
MUTATION_CELLS = [(6, 3), (7, 3), (8, 3), (8, 4)]

# 13 jobs: the pooled median falls on tilting (7,3), between euler (8,4)
# and euler (10,3) of like cost; euler (9,4) runs twice so that the p75 falls
# between two like jobs, not on the edge between unlike ones
TILT_CELLS = [
    ("euler", 6, 3), ("tilting", 6, 3), ("euler", 7, 3), ("euler", 7, 4),
    ("euler", 8, 3), ("euler", 8, 4), ("tilting", 7, 3), ("euler", 10, 3),
    ("euler", 9, 4), ("euler", 9, 4), ("tilting", 7, 4), ("tilting", 8, 3),
    ("tilting", 8, 4),
]

RELATION_CELLS = [(5, 2), (6, 3), (7, 3)]
KMATRIX_CELLS = [(6, 3, 2, -2), (7, 3, 2, -2), (8, 3, 2, -2), (8, 4, 2, -2), (8, 4, -2, 2)]
SWEEP_CELLS = [(8, 4, 2, -2), (8, 4, -2, 2)]

# the cells of the ROADMAP baseline table, timed once by baseline.py
BASELINE = [
    lambda: _localization(7, 3, 0), lambda: _localization(8, 4, 0),
    lambda: _suite("tilting", 8, 4), lambda: _suite("tilting", 9, 4),
    lambda: _suite("euler", 8, 4), lambda: _suite("euler", 9, 4),
    lambda: _kmatrix(7, 3, 2, -2), lambda: _kmatrix(8, 4, 2, -2),
    lambda: _suite("relations", 7, 3), lambda: _suite("relations", 8, 4),
]


def _gens(d, r, k):
    return [",".join(map(str, g.weight(r))) for g in enumerate_window(Context(d, r), k)]


def _bases(d, r):
    return [",".join(map(str, b.parts)) for b in admissible_bases(Context(d, r)) if b.parts]


def _cli_templates():
    """(argv with one optional slot '{}', choices for the slot, expected exit).

    Generators go in as `--gen=w`: argparse reads a bare `-1,-1` as an option.
    """
    ks = [str(k) for k in range(-2, 3)]
    return [
        (["--version"], None, 0),
        (["windows", "--d", "4", "--r", "2", "--k", "{}"], ks, 0),
        (["windows", "--d", "6", "--r", "3", "--k", "{}", "--format", "json"], ks, 0),
        (["windows", "--d", "5", "--r", "2", "--k", "{}", "--format", "latex"], ks, 0),
        (["windows", "--d", "7", "--r", "3", "--k", "{}"], ks, 0),
        (["staircase", "--d", "7", "--r", "3", "--delta", "{}"], _bases(7, 3), 0),
        (["staircase", "--d", "7", "--r", "3", "--delta", "{}", "--format", "json"], _bases(7, 3), 0),
        (["staircase", "--d", "6", "--r", "3", "--delta", "{}", "--format", "latex"], _bases(6, 3), 0),
        (["staircase", "--d", "4", "--r", "2", "--delta", "{}", "--sequence"], _bases(4, 2), 0),
        (
            ["staircase", "--d", "6", "--r", "3", "--delta", "{}", "--sequence", "--format", "json"],
            _bases(6, 3),
            0,
        ),
        (
            ["staircase", "--d", "5", "--r", "2", "--delta", "{}", "--sequence", "--format", "latex"],
            _bases(5, 2),
            0,
        ),
        (["staircase", "--d", "7", "--r", "2", "--delta", "{}", "--sequence"], _bases(7, 2), 0),
        (["shift", "--d", "5", "--r", "2", "--from", "1", "--to", "0", "--gen={}"], _gens(5, 2, 1), 0),
        (
            ["shift", "--d", "6", "--r", "3", "--from", "2", "--to", "-1", "--gen={}",
             "--keep-det", "--format", "json"],
            _gens(6, 3, 2),
            0,
        ),
        (
            ["shift", "--d", "5", "--r", "2", "--from", "-1", "--to", "1", "--gen={}",
             "--format", "latex"],
            _gens(5, 2, -1),
            0,
        ),
        (["shift", "--d", "7", "--r", "3", "--from", "0", "--to", "1", "--gen={}"], _gens(7, 3, 0), 0),
        (["twist", "--d", "4", "--r", "2", "--gen={}"], _gens(4, 2, 1), 0),
        (
            ["twist", "--d", "6", "--r", "2", "--gen={}", "--keep-det", "--format", "json"],
            _gens(6, 2, 1),
            0,
        ),
        (["matrix", "--d", "5", "--r", "2", "--from", "1", "--to", "0"], None, 0),
        (["matrix", "--d", "6", "--r", "3", "--from", "2", "--to", "-2", "--format", "json"], None, 0),
        (["matrix", "--d", "6", "--r", "2", "--from", "-1", "--to", "1", "--format", "csv"], None, 0),
        (["verify", "exactness", "--d", "5", "--r", "2", "--seed", "0"], None, 0),
        (["verify", "exactness", "--d", "6", "--r", "2", "--seed", "1", "--format", "json"], None, 0),
        (["verify", "euler", "--d", "6", "--r", "3"], None, 0),
        (["verify", "euler", "--d", "5", "--r", "2", "--delta", "{}", "--format", "json"], _bases(5, 2), 0),
        (["verify", "tilting", "--d", "6", "--r", "3"], None, 0),
        (["verify", "relations", "--d", "5", "--r", "2", "--format", "json"], None, 0),
        (["verify", "regression", "--d", "4", "--r", "2"], None, 0),
        (["verify", "regression", "--d", "7", "--r", "3", "--format", "json"], None, 0),
        # r > d: refused as invalid input
        (["windows", "--d", "4", "--r", "5"], None, 2),
    ]


def _fill(argv, choice):
    return [a.replace("{}", choice) for a in argv]


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "localize":
        out = [_localization(d, r, s) for (d, r), seeds in LOCALIZE_CELLS for s in seeds]
        out += [_mutations(d, r, rng.randrange(MUTATION_SEEDS)) for d, r in MUTATION_CELLS]
    elif workload == "tilt":
        out = [_suite(name, d, r) for name, d, r in TILT_CELLS]
    elif workload == "relations":
        out = [_suite("relations", d, r) for d, r in RELATION_CELLS]
        out += [_kmatrix(*cell) for cell in KMATRIX_CELLS]
        out += [_shift_sweep(*cell, rng=rng) for cell in SWEEP_CELLS]
    elif workload == "cli":
        out = [
            _cli(_fill(argv, rng.choice(choices)) if choices else argv, code)
            for argv, choices, code in _cli_templates()
        ]
    elif workload == "baseline":
        return [make() for make in BASELINE]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def catalogue(workload: str) -> list[Job]:
    """Every job any seed can put in the workload's list."""
    if workload == "localize":
        out = [_localization(d, r, s) for (d, r), seeds in LOCALIZE_CELLS for s in seeds]
        out += [_mutations(d, r, s) for d, r in MUTATION_CELLS for s in range(MUTATION_SEEDS)]
        return out
    if workload == "cli":
        return [
            _cli(_fill(argv, c), code)
            for argv, choices, code in _cli_templates()
            for c in (choices or [""])
        ]
    return jobs(workload, 0)
