"""Independent verification oracles for the staircase and window machinery.

Each check returns a VerificationReport; a failing report always carries a
structured counterexample. Checks are deterministic given their seed, so
reports are reproducible run to run.

The localization check only certifies a necessary condition for exactness
(the alternating K-class vanishes at every torus fixed point); it never
claims exactness itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations

from .bott import HomogeneousWeight, euler_character, hom_bundle_cohomology
from .emit import sequence_text, staircase_text, windows_text
from .partitions import Context, Partition, ShapeError, box_partitions
from .shifts import cotwist_shift_amount, k_matrix, shift_down_generator
from .staircase import (
    StaircaseStep,
    admissible_bases,
    resolution_sequence,
    staircase_diagrams,
    window_bases,
)
from .symfunc import SchurExpansion, elementary_at, schur_at
from .windows import enumerate_window


@dataclass
class VerificationReport:
    check: str
    parameters: dict
    passed: bool
    counterexample: dict | None = None
    timing: float = 0.0
    note: str = ""

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError("a failing report must carry a counterexample")

    def to_json_obj(self, include_timing: bool = False):
        obj = {
            "check": self.check,
            "parameters": self.parameters,
            "pass": self.passed,
            "counterexample": self.counterexample,
            "note": self.note,
        }
        if include_timing:
            obj["timing"] = round(self.timing, 6)
        return obj


def sample_point(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    """d distinct positive rationals with numerator and denominator <= 100."""
    pts: set[Fraction] = set()
    while len(pts) < d:
        pts.add(Fraction(rng.randint(1, 100), rng.randint(1, 100)))
    return tuple(sorted(pts))


def _localization_counterexample(ctx, base, steps, points, memo=None):
    """First fixed point where the alternating sum is nonzero, or None.

    `memo` maps (point index, fixed subset, padded diagram) to a Schur value;
    calls that share one must pass the same `points`.
    """
    r, d = ctx.r, ctx.d
    memo = {} if memo is None else memo
    diagrams = [base.pad(r)] + [st.delta.pad(r) for st in steps]
    wedges = [0] + [st.s for st in steps]  # the base carries e_0 = 1
    for p, t in enumerate(points):
        es = [elementary_at(t, s) for s in range(d + 1)]
        coeffs = [(-1) ** n * es[s] for n, s in enumerate(wedges)]
        inverse = [Fraction(1) / x for x in t]
        for fixed in combinations(range(d), r):
            y = tuple(inverse[i] for i in fixed)
            total = Fraction(0)
            for mu, c in zip(diagrams, coeffs):
                key = (p, fixed, mu)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = schur_at(mu, y)
                total += value * c
            if total != 0:
                return {
                    "delta": list(base.parts),
                    "fixedPoint": [i + 1 for i in fixed],
                    "point": [str(x) for x in t],
                    "residual": str(total),
                    "steps": [[list(st.delta.parts), st.s] for st in steps],
                }
    return None


def localization_holds(ctx, base, steps, points, memo=None) -> bool:
    """Fixed-point identity for explicitly given staircase terms."""
    return _localization_counterexample(ctx, base, steps, points, memo) is None


def verify_localization(
    ctx: Context, delta=None, samples: int = 3, seed: int = 0
) -> VerificationReport:
    """Check the alternating K-class of each staircase at every fixed point.

    Restriction to a fixed point sends S^v(mu) to the Schur value at the
    inverted coordinates of the chosen r-subset and wedge^s V to e_s of all
    coordinates; an exact sequence makes the alternating sum vanish.
    """
    t0 = time.perf_counter()
    if samples < 1:
        raise ShapeError("samples must be at least 1")
    bases = [Partition(tuple(delta))] if delta is not None else admissible_bases(ctx)
    rng = random.Random(seed)
    points = [sample_point(rng, ctx.d) for _ in range(samples)]
    counterexample = None
    memo: dict = {}
    for base in bases:
        steps = staircase_diagrams(ctx, base).steps
        counterexample = _localization_counterexample(ctx, base, steps, points, memo)
        if counterexample:
            break
    passed = counterexample is None
    return VerificationReport(
        check="localization",
        parameters={
            "d": ctx.d,
            "r": ctx.r,
            "samples": samples,
            "seed": seed,
            "deltas": "all admissible" if delta is None else list(Partition(tuple(delta)).parts),
        },
        passed=passed,
        counterexample=counterexample,
        timing=time.perf_counter() - t0,
        note=(
            "necessary condition verified: alternating K-class vanishes at "
            "every torus fixed point"
            if passed
            else "fixed-point identity failed"
        ),
    )


def mutate_steps(rng: random.Random, ctx: Context, steps) -> tuple[StaircaseStep, ...]:
    """Corrupt one step: change its wedge exponent or move one diagram box."""
    out = list(steps)
    while True:
        i = rng.randrange(len(out))
        st = out[i]
        if rng.random() < 0.5:
            s2 = rng.randint(0, ctx.d)
            if s2 != st.s:
                out[i] = StaircaseStep(st.delta, s2)
                return tuple(out)
        else:
            parts = list(st.delta.pad(ctx.r))
            j = rng.randrange(ctx.r)
            parts[j] += rng.choice((-1, 1))
            try:
                p2 = Partition(tuple(parts))
            except ShapeError:
                continue
            if p2 != st.delta:
                out[i] = StaircaseStep(p2, st.s)
                return tuple(out)


def localization_mutation_sweep(
    ctx: Context, mutations: int = 20, seed: int = 0
) -> VerificationReport:
    """Corrupt staircase data and confirm localization catches every mutation."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    points = [sample_point(rng, ctx.d) for _ in range(3)]
    bases = admissible_bases(ctx)
    survivors = []
    memo: dict = {}
    for n in range(mutations):
        base = bases[rng.randrange(len(bases))]
        steps = staircase_diagrams(ctx, base).steps
        mutated = mutate_steps(rng, ctx, steps)
        if localization_holds(ctx, base, mutated, points, memo):
            survivors.append(
                {
                    "mutation": n,
                    "delta": list(base.parts),
                    "steps": [[list(st.delta.parts), st.s] for st in mutated],
                }
            )
    passed = not survivors
    return VerificationReport(
        check="localization-mutations",
        parameters={"d": ctx.d, "r": ctx.r, "mutations": mutations, "seed": seed},
        passed=passed,
        counterexample={"undetected": survivors} if survivors else None,
        timing=time.perf_counter() - t0,
        note="every corrupted staircase failed the fixed-point identity"
        if passed
        else "some corruption went undetected",
    )


def _wedge_v_character(ctx: Context, s: int) -> SchurExpansion:
    """Character of wedge^s V as a dominant weight on V^v."""
    return SchurExpansion({(0,) * (ctx.d - s) + (-1,) * s: 1}, rank=ctx.d)


def verify_euler(ctx: Context, delta=None) -> VerificationReport:
    """Balance equivariant Euler characteristics across each staircase.

    Exactness forces the alternating sum of the GL(d) characters of the
    cohomology, weighted by the wedge multiplicity characters, to vanish;
    equality is decided structurally in the Schur basis.
    """
    t0 = time.perf_counter()
    bases = [Partition(tuple(delta))] if delta is not None else admissible_bases(ctx)
    q0 = (0,) * (ctx.d - ctx.r)
    counterexample = None
    for base in bases:
        steps = staircase_diagrams(ctx, base).steps
        total = euler_character(ctx, HomogeneousWeight(base.pad(ctx.r), q0))
        sign = -1
        for st in steps:
            chi = euler_character(ctx, HomogeneousWeight(st.delta.pad(ctx.r), q0))
            total = total + sign * chi.multiply(_wedge_v_character(ctx, st.s))
            sign = -sign
        if not total.is_zero():
            counterexample = {
                "delta": list(base.parts),
                "residual": [[list(k), c] for k, c in total.items()],
            }
            break
    passed = counterexample is None
    return VerificationReport(
        check="euler",
        parameters={
            "d": ctx.d,
            "r": ctx.r,
            "deltas": "all admissible" if delta is None else list(Partition(tuple(delta)).parts),
        },
        passed=passed,
        counterexample=counterexample,
        timing=time.perf_counter() - t0,
        note="alternating Euler characters balance in the Schur basis"
        if passed
        else "character balance failed",
    )


def verify_tilting(ctx: Context) -> VerificationReport:
    """Ext-vanishing sweep: no higher cohomology between box generators."""
    t0 = time.perf_counter()
    shapes = box_partitions(ctx.box_rows, ctx.box_cols)
    counterexample = None
    for gamma in shapes:
        for delta in shapes:
            table = hom_bundle_cohomology(ctx, gamma, delta)
            bad = [deg for deg in table.nonzero_degrees() if deg > 0]
            if bad:
                counterexample = {
                    "gamma": list(gamma.parts),
                    "delta": list(delta.parts),
                    "degrees": bad,
                }
                break
        if counterexample:
            break
    passed = counterexample is None
    return VerificationReport(
        check="tilting",
        parameters={"d": ctx.d, "r": ctx.r, "pairs": len(shapes) ** 2},
        passed=passed,
        counterexample=counterexample,
        timing=time.perf_counter() - t0,
        note="no higher Ext groups between window generators"
        if passed
        else "higher cohomology found inside the box",
    )


def verify_relations(ctx: Context, k_range=range(-2, 3)) -> VerificationReport:
    """Matrix-level shift relations: composition, det-conjugation, round trips,
    unimodularity, and the identity shift."""
    t0 = time.perf_counter()
    ks = sorted(k_range)
    mats = {(k, l): k_matrix(ctx, k, l) for k in ks for l in ks}
    counterexample = None

    def fail(kind, **info):
        nonlocal counterexample
        counterexample = {"relation": kind, **info}

    for k in ks:
        if not mats[(k, k)].is_identity():
            fail("identity", k=k)
            break
    if counterexample is None:
        for (k, l), m in mats.items():
            if m.determinant() not in (-1, 1):
                fail("unimodular", k=k, l=l, det=m.determinant())
                break
    if counterexample is None:
        for k in ks:
            for l in ks:
                for m in ks:
                    lhs = mats[(k, l)] @ mats[(l, m)]
                    if lhs.entries != mats[(k, m)].entries:
                        fail("composition", k=k, l=l, m=m)
                        break
                if counterexample:
                    break
            if counterexample:
                break
    if counterexample is None:
        for k in ks:
            for l in ks:
                for shift in ks:
                    if k + shift in ks and l + shift in ks:
                        if mats[(k + shift, l + shift)].entries != mats[(k, l)].entries:
                            fail("det-conjugation", k=k, l=l, shift=shift)
                            break
                if counterexample:
                    break
            if counterexample:
                break
    if counterexample is None:
        for k in ks:
            for l in ks:
                if not (mats[(k, l)] @ mats[(l, k)]).is_identity():
                    fail("round-trip", k=k, l=l)
                    break
            if counterexample:
                break
    passed = counterexample is None
    return VerificationReport(
        check="relations",
        parameters={
            "d": ctx.d,
            "r": ctx.r,
            "kRange": list(ks),
            "cotwistShiftAmount": cotwist_shift_amount(ctx),
        },
        passed=passed,
        counterexample=counterexample,
        timing=time.perf_counter() - t0,
        note="K-matrix relations hold" if passed else "a K-matrix relation failed",
    )


def _shift_table_text(ctx: Context) -> str:
    from .emit import format_complex, format_generator

    lines = []
    for g in enumerate_window(ctx, 1):
        tc = shift_down_generator(ctx, g)
        lines.append(f"{format_generator(ctx, g)} ↦ {format_complex(ctx, tc)}")
    return "\n".join(lines) + "\n"


def _sequences_text(ctx: Context) -> str:
    return "".join(
        sequence_text(ctx, resolution_sequence(ctx, base)) for base in window_bases(ctx)
    )


def _staircase_text_for(base):
    def produce(ctx: Context) -> str:
        return staircase_text(staircase_diagrams(ctx, Partition(base)))

    return produce


def _windows_text_for(k):
    def produce(ctx: Context) -> str:
        return windows_text(ctx, enumerate_window(ctx, k))

    return produce


GOLDEN_INDEX = [
    (4, 2, "windows_d4_r2_k0.txt", _windows_text_for(0)),
    (4, 2, "windows_d4_r2_k1.txt", _windows_text_for(1)),
    (4, 1, "windows_d4_r1_k0.txt", _windows_text_for(0)),
    (4, 1, "windows_d4_r1_k1.txt", _windows_text_for(1)),
    (4, 2, "shift_table_d4_r2.txt", _shift_table_text),
    (2, 1, "shift_table_d2_r1.txt", _shift_table_text),
    (3, 1, "shift_table_d3_r1.txt", _shift_table_text),
    (4, 1, "shift_table_d4_r1.txt", _shift_table_text),
    (5, 1, "shift_table_d5_r1.txt", _shift_table_text),
    (6, 1, "shift_table_d6_r1.txt", _shift_table_text),
    (7, 1, "shift_table_d7_r1.txt", _shift_table_text),
    (8, 1, "shift_table_d8_r1.txt", _shift_table_text),
    (7, 3, "staircase_d7_r3_base_3_1.txt", _staircase_text_for((3, 1))),
    (4, 2, "sequences_d4_r2.txt", _sequences_text),
    (2, 1, "sequences_d2_r1.txt", _sequences_text),
]


def _read_golden(name: str) -> str:
    return (resources.files("schurwin") / "golden" / name).read_text(encoding="utf-8")


def verify_regression(ctx: Context) -> VerificationReport:
    """Byte-exact comparison of emitted output against the stored golden files."""
    t0 = time.perf_counter()
    entries = [e for e in GOLDEN_INDEX if (e[0], e[1]) == (ctx.d, ctx.r)]
    if not entries:
        raise ShapeError(f"no golden data for d={ctx.d}, r={ctx.r}")
    counterexample = None
    for _, _, name, produce in entries:
        expected = _read_golden(name)
        actual = produce(ctx)
        if actual != expected:
            counterexample = {
                "file": name,
                "expected": expected.splitlines(),
                "actual": actual.splitlines(),
            }
            break
    passed = counterexample is None
    return VerificationReport(
        check="regression",
        parameters={"d": ctx.d, "r": ctx.r, "files": [e[2] for e in entries]},
        passed=passed,
        counterexample=counterexample,
        timing=time.perf_counter() - t0,
        note="emitted output matches the golden files byte for byte"
        if passed
        else "golden mismatch",
    )
