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
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from math import comb, lcm
from operator import mul

from .bott import (
    HomogeneousWeight, _box_weight, _class_key, euler_character, hom_bundle_cohomology
)
from .emit import format_complex, format_generator, sequence_text, staircase_text, windows_text
from .partitions import Context, Partition, ShapeError, _bareiss, box_partitions
from .shifts import cotwist_shift_amount, k_matrix, shift_down_generator
from .staircase import (
    StaircaseStep,
    admissible_bases,
    resolution_sequence,
    staircase_diagrams,
    window_bases,
)
from .symfunc import SchurExpansion, _cleared, _h_table, elementary_at, schur_at
from .windows import enumerate_window


class VerificationReport:
    """Outcome of one check: mutable, compared attribute by attribute, unhashable."""

    __hash__ = None

    def __init__(
        self, check: str, parameters: dict, passed: bool,
        counterexample: dict | None = None, timing: float = 0.0, note: str = "",
    ):
        if not passed and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        self.check, self.parameters, self.passed = check, parameters, passed
        self.counterexample, self.timing, self.note = counterexample, timing, note

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"VerificationReport({body})"

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


def _report(check: str, parameters: dict, t0: float, failures, notes) -> VerificationReport:
    """Report of a check begun at `t0`: its first failure (None items are
    passes) is the counterexample; `notes` holds the pass and fail notes."""
    counterexample = next(filter(None, failures), None)
    passed = counterexample is None
    return VerificationReport(
        check, parameters, passed, counterexample, time.perf_counter() - t0, notes[not passed]
    )


def _bases(ctx: Context, delta):
    """The staircase bases a check runs over, and its "deltas" parameter; all
    C(d, r - 1) admissible bases if `delta` is None, unless past SWEEP_LIMIT."""
    if delta is None:
        _refuse_past_sweep_limit("bases", ctx.r and comb(ctx.d, ctx.r - 1))
        return admissible_bases(ctx), "all admissible"
    base = Partition(tuple(delta))
    return [base], list(base.parts)


SAMPLE_LIMIT = 6087  # how many distinct fractions n/m have 1 <= n, m <= 100
WORK_LIMIT = 10**8  # most terms one localization check may evaluate
SWEEP_LIMIT = 3 * 10**5  # most (gamma, delta) pairs, bases or Euler bases times d a sweep may list


def _refuse_past_sweep_limit(what: str, n: int) -> None:
    """Refuse a sweep over n `what` past SWEEP_LIMIT, before listing any."""
    if n > SWEEP_LIMIT:
        raise ShapeError(f"the sweep has {n:,} {what}, over SWEEP_LIMIT={SWEEP_LIMIT:,}")


def _refuse_past_work_limit(ctx: Context, samples: int, staircases: int | None) -> None:
    """Refuse `samples` points times `staircases` (None: C(d, r - 1) bases) times C(d, r)
    (d - r + 2) terms past WORK_LIMIT, before any draw; past SAMPLE_LIMIT, `sample_point` does."""
    if ctx.d <= SAMPLE_LIMIT:
        staircases = comb(ctx.d, ctx.r - 1) if staircases is None else staircases
        work = comb(ctx.d, ctx.r) * staircases * samples * (ctx.d - ctx.r + 2)
        if work > WORK_LIMIT:
            raise ShapeError(f"localization needs {work:,} term evaluations, "
                             f"over WORK_LIMIT={WORK_LIMIT:,}")


def sample_point(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    """d distinct positive rationals with numerator and denominator <= 100."""
    if d > SAMPLE_LIMIT:
        raise ShapeError(f"a sample point has at most {SAMPLE_LIMIT} coordinates, got d={d}")
    pts: set[Fraction] = set()
    while len(pts) < d:
        pts.add(Fraction(rng.randint(1, 100), rng.randint(1, 100)))
    return tuple(sorted(pts))


def _over_base(mu, rows):
    """(x, sign) if mu's Jacobi-Trudi offsets mu_i - i are `rows` with one x
    inserted at place p, sign = (-1)^(len(rows) - p); else None. The offsets
    strictly decrease, so p is the first place where they leave `rows`."""
    offsets, p = [m - i for i, m in enumerate(mu)], 0
    while p < len(rows) and offsets[p] == rows[p]:
        p += 1
    if len(offsets) == len(rows) + 1 and offsets[p + 1:] == rows[p:]:
        return offsets[p], (-1) ** (len(rows) - p)
    return None


def _localization_counterexample(ctx, base, steps, points, memo=None):
    """First fixed point where the alternating sum is nonzero, or None.

    The sum is taken over the integers. With q_t the lcm of the point's
    denominators, S the largest wedge exponent, M the largest diagram size
    and the inverted subset coordinates y = b / q over the integers, term n
    is (-1)^n e_s(t) q_t^S * schur_at(mu, b) q^(M - |mu|); schur_at(mu, b) =
    schur_at(mu, y) q^|mu|, and a nonzero sum over q_t^S q^M is the residual.
    A staircase term's offsets mu_i - i are the base's first r - 1 offsets a
    with one x inserted at place p, so its Jacobi-Trudi determinant is
    (-1)^(r - 1 - p) det of the rows (h_(a + j))_j over (h_(x + j))_j, h_m = 0
    for m < 0. That is linear in the last row: the terms whose own rows match
    sum exactly into one `_bareiss` over one combined row. Any other term, such as a
    corrupted one, is its own `schur_at(mu, b)`, which builds its own h-table. A zero
    sum is a necessary condition for exactness only. `memo`, a dict the caller owns,
    is bound to `points`: at index p it keeps (the point, {s: e_s(t)},
    {fixed subset: (b, q, h)}), h = `_h_table(b, m)`, m = max mu_1 + r - 1
    over its diagrams so far, the last index a row reads; another point at
    index p raises ShapeError.
    """
    r, d = ctx.r, ctx.d
    memo = {} if memo is None else memo
    diagrams = [base.pad(r)] + [st.delta.pad(r) for st in steps]
    sizes = [sum(mu) for mu in diagrams]
    rows = [a - i for i, a in enumerate(diagrams[0][: r - 1])]  # the base's first r - 1 offsets
    over = [_over_base(mu, rows) for mu in diagrams]  # at r >= 1 the base itself is over
    signs = [hit[1] if hit else 1 for hit in over]
    top_h = max(sum(mu[:1]) for mu in diagrams) + r - 1
    pad = (0,) * (r - 1)  # every offset is at least 1 - r
    wedges = [0] + [st.s for st in steps]  # the base carries e_0 = 1
    top_s, top_m = max(wedges), max(sizes)
    for p, t in enumerate(points):
        kept, es, cleared = memo.setdefault(p, (tuple(t), {}, {}))
        if kept != tuple(t):
            raise ShapeError(f"memo has point {p} as {[*map(str, kept)]}, not {[*map(str, t)]}")
        es.update((s, elementary_at(t, s)) for s in set(wedges) - es.keys())
        scale = lcm(*(x.denominator for x in t)) ** top_s
        coeffs = [(-1) ** n * sign * es[s].numerator * (scale // es[s].denominator)
                  for n, (s, sign) in enumerate(zip(wedges, signs))]
        for fixed in combinations(range(d), r):
            b, q, h = cleared.get(fixed) or (*_cleared([Fraction(1) / t[i] for i in fixed]), ())
            if len(h) <= top_h:  # new, or too short for this staircase
                cleared[fixed] = (b, q, (h := _h_table(b, top_h)))
            hz = pad + h  # hz[m + r - 1] = h_m, with h_m = 0 for m < 0
            total, weights, segments = 0, [], []
            for mu, size, c, hit in zip(diagrams, sizes, coeffs, over):
                if hit is None:
                    total += c * schur_at(mu, b) * q ** (top_m - size)
                else:
                    weights.append(c * q ** (top_m - size))
                    segments.append(hz[hit[0] + r - 1 : hit[0] + 2 * r - 1])
            if r:  # the base's r - 1 rows over the combined row
                mat = [list(hz[a + r - 1 : a + 2 * r - 1]) for a in rows]
                total += _bareiss(mat + [[sum(map(mul, weights, col)) for col in zip(*segments)]])
            if total:
                return {
                    "delta": list(base.parts),
                    "fixedPoint": [i + 1 for i in fixed],
                    "point": [str(x) for x in t],
                    "residual": str(Fraction(total, scale * q**top_m)),
                    "steps": [[list(st.delta.parts), st.s] for st in steps],
                }
    return None


def localization_holds(ctx, base, steps, points, memo=None) -> bool:
    """Fixed-point identity for explicitly given staircase terms; `memo` is
    as for `_localization_counterexample`."""
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
    _refuse_past_work_limit(ctx, samples, None if delta is None and ctx.r else 1)
    rng = random.Random(seed)
    points = [sample_point(rng, ctx.d) for _ in range(samples)]
    bases, deltas = _bases(ctx, delta)
    memo: dict = {}
    return _report(
        "localization",
        {"d": ctx.d, "r": ctx.r, "samples": samples, "seed": seed, "deltas": deltas},
        t0,
        (
            _localization_counterexample(ctx, b, staircase_diagrams(ctx, b).steps, points, memo)
            for b in bases
        ),
        (
            "necessary condition verified: alternating K-class vanishes at "
            "every torus fixed point",
            "fixed-point identity failed",
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
    if ctx.r == 0:
        raise ShapeError("no staircase bases exist for r = 0")
    if mutations < 1:
        raise ShapeError("mutations must be at least 1")
    _refuse_past_work_limit(ctx, 3, mutations)
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
    return _report(
        "localization-mutations",
        {"d": ctx.d, "r": ctx.r, "mutations": mutations, "seed": seed},
        t0,
        [{"undetected": survivors} if survivors else None],
        (
            "every corrupted staircase failed the fixed-point identity",
            "some corruption went undetected",
        ),
    )


def _wedge_v_character(ctx: Context, s: int) -> SchurExpansion:
    """Character of wedge^s V as a dominant weight on V^v."""
    return SchurExpansion({(0,) * (ctx.d - s) + (-1,) * s: 1}, rank=ctx.d)


def _euler_failures(ctx: Context, bases):
    """Bases whose staircase leaves a residual. One wedge character per s, and one Euler
    character per diagram passed, keyed by its padded parts, serve every base."""
    q0, wedges, chis = (0,) * (ctx.d - ctx.r), {}, {}

    def chi_of(diagram):
        w = diagram.pad(ctx.r)
        return chis.get(w) or chis.setdefault(w, euler_character(ctx, HomogeneousWeight(w, q0)))

    for base in bases:
        steps = staircase_diagrams(ctx, base).steps
        total = dict(chi_of(base).terms)
        for n, st in enumerate(steps, 1):
            wedge = wedges.get(st.s) or wedges.setdefault(st.s, _wedge_v_character(ctx, st.s))
            for k, c in chi_of(st.delta).multiply(wedge).terms.items():
                total[k] = total.get(k, 0) + (-1) ** n * c
        residual = [[list(k), c] for k, c in sorted(total.items()) if c]
        if residual:
            yield {"delta": list(base.parts), "residual": residual}


def verify_euler(ctx: Context, delta=None) -> VerificationReport:
    """Balance equivariant Euler characteristics across each staircase.

    Exactness forces the alternating sum of the cohomology's GL(d) characters, weighted by the
    wedge multiplicity characters, to vanish, decided structurally in the Schur basis. With no
    `delta` it refuses C(d, r - 1) * d past SWEEP_LIMIT, before listing any base.
    """
    t0 = time.perf_counter()
    if delta is None:
        _refuse_past_sweep_limit("bases times d", ctx.r and comb(ctx.d, ctx.r - 1) * ctx.d)
    bases, deltas = _bases(ctx, delta)
    return _report(
        "euler",
        {"d": ctx.d, "r": ctx.r, "deltas": deltas},
        t0,
        _euler_failures(ctx, bases),
        ("alternating Euler characters balance in the Schur basis", "character balance failed"),
    )


def _tilting_failures(ctx: Context, shapes):
    """Pairs of `shapes` with higher Ext, by their first pair in pair order. A pair's table
    depends only on its key, the `_class_key` of its translated weights and their total offset:
    each key is decided once, class by class, and the memo is cleared after each class."""
    memo, steps, weights, r = {}, {}, {}, ctx.r  # `steps`: the LR strip-DP transitions
    duals = [_box_weight(weights, s, r, True) for s in shapes]
    plains = [_box_weight(weights, s, r, False) for s in shapes]
    first: dict = {}  # class -> {total offset: (i, j) of its first pair}
    for i, (u, nu) in enumerate(duals):
        for j, (v, nv) in enumerate(plains):
            first.setdefault(_class_key(u, v), {}).setdefault(nu + nv, (i, j))
    failing = []
    for offsets in first.values():
        for i, j in offsets.values():
            table = hom_bundle_cohomology(ctx, shapes[i], shapes[j], memo, steps, weights)
            bad = [deg for deg in table.nonzero_degrees() if deg > 0]
            if bad:
                failing.append((i, j, bad))
        memo.clear()
    for i, j, bad in sorted(failing):
        yield {"gamma": list(shapes[i].parts), "delta": list(shapes[j].parts), "degrees": bad}


def verify_tilting(ctx: Context) -> VerificationReport:
    """Ext-vanishing sweep: no higher cohomology between box generators; past
    SWEEP_LIMIT pairs it raises ShapeError before listing any."""
    t0 = time.perf_counter()
    _refuse_past_sweep_limit("(gamma, delta) pairs", comb(ctx.d, ctx.r) ** 2)
    shapes = box_partitions(ctx.box_rows, ctx.box_cols)
    return _report(
        "tilting",
        {"d": ctx.d, "r": ctx.r, "pairs": len(shapes) ** 2},
        t0,
        _tilting_failures(ctx, shapes),
        (
            "no higher Ext groups between window generators",
            "higher cohomology found inside the box",
        ),
    )


def _relation_failures(mats, dets, ks):
    """Failed relations among the K-matrices, in the order checked; each check
    assumes the earlier ones passed. Each M_kl is the left fold of one set of
    unit steps, so with every M_kk the identity, M_kl @ M_lm = M_km for l
    between k and m. For l beyond a = max(k, m) (or below a = min(k, m)) it
    reads M_ka @ (M_al @ M_la) @ M_am = M_ka @ M_am, which, with every M
    unimodular, holds iff the round trip M_al @ M_la is the identity."""
    for k in ks:
        if not mats[(k, k)].is_identity():
            yield {"relation": "identity", "k": k}
    for k, l in mats:
        if dets[(k, l)] not in (-1, 1):
            yield {"relation": "unimodular", "k": k, "l": l, "det": dets[(k, l)]}
    trips = {}  # (a, l) -> whether M_al @ M_la is the identity
    for k, l, m in product(ks, repeat=3):
        if min(k, m) <= l <= max(k, m):
            continue
        a = max(k, m) if l > max(k, m) else min(k, m)
        if (a, l) not in trips:
            trips[(a, l)] = (mats[(a, l)] @ mats[(l, a)]).is_identity()
        if not trips[(a, l)]:
            yield {"relation": "composition", "k": k, "l": l, "m": m}
    for k, l, shift in product(ks, repeat=3):
        if k + shift in ks and l + shift in ks:
            if mats[(k + shift, l + shift)].entries != mats[(k, l)].entries:
                yield {"relation": "det-conjugation", "k": k, "l": l, "shift": shift}


def verify_relations(ctx: Context, k_range=range(-2, 3)) -> VerificationReport:
    """Matrix-level shift relations: the identity shift, unimodularity,
    composition (by the fold for l in [k, m], else by a round trip a -> l -> a)
    and det-conjugation. Stops at the first failure; past MATRIX_LIMIT, `k_matrix` raises first.

    Each unit step U is built once per direction and M_kl is their left fold.
    det M_kl is the product of the exact det U on its way: each U peels to nothing.
    The unit K-matrices share one memo of untwisted unit-step images; every
    level reads the same untwisted image, so det-conjugation keeps its
    strength: it tests each level's `_unit_step` and untwisted indexing.
    """
    t0 = time.perf_counter()
    ks = sorted(k_range)
    walk = range(ks[0], ks[-1] + 1) if ks else range(0)
    memo: dict = {}
    units = {(k, l): k_matrix(ctx, k, l, memo) for k in walk for l in (k - 1, k + 1) if l in walk}
    unit_dets = {kl: u.determinant() for kl, u in units.items()}
    mats, dets = {}, {}
    for k in ks:
        row = {k: k_matrix(ctx, k, k)}
        dets[(k, k)] = row[k].determinant()
        for step in (1, -1):
            m, det, j = None, 1, k
            while j + step in walk:
                key, j = (j, j + step), j + step
                m = units[key] if m is None else m @ units[key]
                det *= unit_dets[key]
                row[j], dets[(k, j)] = m, det
        mats.update(((k, l), row[l]) for l in ks)
    return _report(
        "relations",
        {
            "d": ctx.d,
            "r": ctx.r,
            "kRange": list(ks),
            "cotwistShiftAmount": cotwist_shift_amount(ctx),
        },
        t0,
        _relation_failures(mats, dets, ks),
        ("K-matrix relations hold", "a K-matrix relation failed"),
    )


def _shift_table_text(ctx: Context) -> str:
    return "".join(
        f"{format_generator(ctx, g)} ↦ {format_complex(ctx, shift_down_generator(ctx, g))}\n"
        for g in enumerate_window(ctx, 1)
    )


def _sequences_text(ctx: Context) -> str:
    return "".join(
        sequence_text(ctx, resolution_sequence(ctx, base)) for base in window_bases(ctx)
    )


GOLDEN_INDEX = [
    (4, 2, "windows_d4_r2_k0.txt", lambda ctx: windows_text(ctx, enumerate_window(ctx, 0))),
    (4, 2, "windows_d4_r2_k1.txt", lambda ctx: windows_text(ctx, enumerate_window(ctx, 1))),
    (4, 1, "windows_d4_r1_k0.txt", lambda ctx: windows_text(ctx, enumerate_window(ctx, 0))),
    (4, 1, "windows_d4_r1_k1.txt", lambda ctx: windows_text(ctx, enumerate_window(ctx, 1))),
    (4, 2, "shift_table_d4_r2.txt", _shift_table_text),
    (2, 1, "shift_table_d2_r1.txt", _shift_table_text),
    (3, 1, "shift_table_d3_r1.txt", _shift_table_text),
    (4, 1, "shift_table_d4_r1.txt", _shift_table_text),
    (5, 1, "shift_table_d5_r1.txt", _shift_table_text),
    (6, 1, "shift_table_d6_r1.txt", _shift_table_text),
    (7, 1, "shift_table_d7_r1.txt", _shift_table_text),
    (8, 1, "shift_table_d8_r1.txt", _shift_table_text),
    (7, 3, "staircase_d7_r3_base_3_1.txt",
     lambda ctx: staircase_text(staircase_diagrams(ctx, Partition((3, 1))))),
    (4, 2, "sequences_d4_r2.txt", _sequences_text),
    (2, 1, "sequences_d2_r1.txt", _sequences_text),
]


def _read_golden(name: str) -> str:
    return (resources.files("schurwin") / "golden" / name).read_text(encoding="utf-8")


def _golden_failures(ctx: Context, entries):
    for _, _, name, produce in entries:
        expected = _read_golden(name)
        actual = produce(ctx)
        if actual != expected:
            yield {"file": name, "expected": expected.splitlines(), "actual": actual.splitlines()}


def verify_regression(ctx: Context) -> VerificationReport:
    """Byte-exact comparison of emitted output against the stored golden files."""
    t0 = time.perf_counter()
    entries = [e for e in GOLDEN_INDEX if (e[0], e[1]) == (ctx.d, ctx.r)]
    if not entries:
        raise ShapeError(f"no golden data for d={ctx.d}, r={ctx.r}")
    return _report(
        "regression",
        {"d": ctx.d, "r": ctx.r, "files": [e[2] for e in entries]},
        t0,
        _golden_failures(ctx, entries),
        ("emitted output matches the golden files byte for byte", "golden mismatch"),
    )
