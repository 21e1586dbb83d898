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
from math import comb
from operator import mul

from .bott import HomogeneousWeight, euler_character, hom_sweep
from .emit import format_complex, format_generator, sequence_text, staircase_text, windows_text
from .partitions import Context, Partition, ShapeError, _bareiss, _refuse_non_ints, box_partitions
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
    """d distinct positive rationals with numerator and denominator <= 100; d an int >= 1."""
    _refuse_non_ints(d=d)
    if d < 1:
        raise ShapeError(f"a sample point needs d >= 1, got d={d}")
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


def _localization_tables(ctx: Context, points) -> list:
    """A table (c, p, {s: int e_s(c), s = 0..d}, {fixed subset: (b, q, h)}, empty) per point
    t = c / p (`_cleared`); no point, or one without d nonzero coordinates: ShapeError."""
    cleared = [_cleared(t) for t in points]
    if not cleared or any(len(c) != ctx.d or not all(c) for c, _ in cleared):
        shown = [[str(Fraction(b, p)) for b in c] for c, p in cleared]
        raise ShapeError(f"localization needs one or more points, each of d={ctx.d} nonzero "
                         f"coordinates, not {shown}")
    return [(c, p, {s: int(elementary_at(c, s)) for s in range(ctx.d + 1)}, {}) for c, p in cleared]


def _localization_counterexample(ctx, base, steps, tables):
    """First fixed point where the alternating sum is nonzero, or None.

    The sum is taken over the integers. With the point t = c / p cleared, S
    the largest wedge exponent, M the largest diagram size and the inverted
    subset coordinates y = b / q over the integers, term n is (-1)^n e_s(c)
    p^(S - s) * schur_at(mu, b) q^(M - |mu|): e_s(t) p^S = e_s(c) p^(S - s) and
    schur_at(mu, b) = schur_at(mu, y) q^|mu|, so a nonzero sum over p^S q^M is the residual.
    A staircase term's offsets mu_i - i are the base's first r - 1 offsets a
    with one x inserted at place p, so its Jacobi-Trudi determinant is
    (-1)^(r - 1 - p) det of the rows (h_(a + j))_j over (h_(x + j))_j, h_m = 0
    for m < 0. That is linear in the last row: the terms whose own rows match
    sum exactly into one `_bareiss` (cofactors up to r = 3) over one combined row; the base's
    rows go in as the h-table's own tuple slices, which `_bareiss` does not consume. Any other
    term, such as a corrupted one, is its own `schur_at(mu, b)`, which builds its own
    h-table. A zero sum is a necessary condition for exactness only. `tables`
    (`_localization_tables`) has one table per point, which carries its cleared point and its
    e_s(c), 0 for s past 0..d; a call adds, per fixed subset, (b, q, h), h = `_h_table(b, m)`,
    m = max mu_1 + r - 1 over the diagrams so far, the last index a row reads.
    """
    r, d = ctx.r, ctx.d
    diagrams = [base.pad(r)] + [st.delta.pad(r) for st in steps]
    sizes = [sum(mu) for mu in diagrams]
    rows = [a - i for i, a in enumerate(diagrams[0][: r - 1])]  # the base's first r - 1 offsets
    over = [_over_base(mu, rows) for mu in diagrams]  # at r >= 1 the base itself is over
    signs = [hit[1] if hit else 1 for hit in over]
    top_h = max(sum(mu[:1]) for mu in diagrams) + r - 1
    pad = (0,) * (r - 1)  # every offset is at least 1 - r
    wedges = [0] + [st.s for st in steps]  # the base carries e_0 = 1
    top_s, top_m = max(wedges), max(sizes)
    for c, p, es, cleared in tables:
        coeffs = [(-1) ** n * sign * es.get(s, 0) * p ** (top_s - s)
                  for n, (s, sign) in enumerate(zip(wedges, signs))]
        for fixed in combinations(range(d), r):
            b, q, h = cleared.get(fixed) or (*_cleared([Fraction(p, c[i]) for i in fixed]), ())
            if len(h) <= top_h:  # new, or too short for this staircase
                cleared[fixed] = (b, q, (h := _h_table(b, top_h)))
            hz = pad + h  # hz[m + r - 1] = h_m, with h_m = 0 for m < 0
            total, weights, segments = 0, [], []
            for mu, size, coef, hit in zip(diagrams, sizes, coeffs, over):
                if hit is None:
                    total += coef * schur_at(mu, b) * q ** (top_m - size)
                else:
                    weights.append(coef * q ** (top_m - size))
                    segments.append(hz[hit[0] + r - 1 : hit[0] + 2 * r - 1])
            if r:  # the base's r - 1 rows over the combined row
                mat = [hz[a + r - 1 : a + 2 * r - 1] for a in rows]
                mat.append([sum(map(mul, weights, col)) for col in zip(*segments)])
                total += _bareiss(mat)
            if total:
                return {
                    "delta": list(base.parts),
                    "fixedPoint": [i + 1 for i in fixed],
                    "point": [str(Fraction(x, p)) for x in c],
                    "residual": str(Fraction(total, p**top_s * q**top_m)),
                    "steps": [[list(st.delta.parts), st.s] for st in steps],
                }
    return None


def localization_holds(ctx, base, steps, points) -> bool:
    """Fixed-point identity for explicitly given staircase terms at `points`, each d nonzero
    rationals (else ShapeError), with fresh tables."""
    return _localization_counterexample(ctx, base, steps, _localization_tables(ctx, points)) is None


def verify_localization(
    ctx: Context, delta=None, samples: int = 3, seed: int = 0
) -> VerificationReport:
    """Check the alternating K-class of each staircase at every fixed point.

    Restriction to a fixed point sends S^v(mu) to the Schur value at the
    inverted coordinates of the chosen r-subset and wedge^s V to e_s of all
    coordinates; an exact sequence makes the alternating sum vanish. A `samples` or `seed`
    that is not an int (a bool included), or samples < 1: ShapeError, before any draw.
    """
    t0 = time.perf_counter()
    _refuse_non_ints(samples=samples, seed=seed)
    if samples < 1:
        raise ShapeError("samples must be at least 1")
    _refuse_past_work_limit(ctx, samples, None if delta is None and ctx.r else 1)
    rng = random.Random(seed)
    tables = _localization_tables(ctx, [sample_point(rng, ctx.d) for _ in range(samples)])
    bases, deltas = _bases(ctx, delta)
    return _report(
        "localization",
        {"d": ctx.d, "r": ctx.r, "samples": samples, "seed": seed, "deltas": deltas},
        t0,
        (
            _localization_counterexample(ctx, b, staircase_diagrams(ctx, b).steps, tables)
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
    """Corrupt staircase data and confirm localization catches every mutation. A `mutations`
    or `seed` that is not an int (a bool included): ShapeError, before any draw."""
    t0 = time.perf_counter()
    _refuse_non_ints(mutations=mutations, seed=seed)
    if ctx.r == 0:
        raise ShapeError("no staircase bases exist for r = 0")
    if mutations < 1:
        raise ShapeError("mutations must be at least 1")
    _refuse_past_work_limit(ctx, 3, mutations)
    rng = random.Random(seed)
    tables = _localization_tables(ctx, [sample_point(rng, ctx.d) for _ in range(3)])
    bases = admissible_bases(ctx)
    survivors = []
    for n in range(mutations):
        base = bases[rng.randrange(len(bases))]
        steps = staircase_diagrams(ctx, base).steps
        mutated = mutate_steps(rng, ctx, steps)
        if _localization_counterexample(ctx, base, mutated, tables) is None:
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
    """Pairs of `shapes` with higher Ext, by their first pair in pair order; `hom_sweep`
    decides each (translation class, total offset) key once, by its first pair."""
    failing = sorted((i, j, bad) for i, j, table in hom_sweep(ctx, shapes)
                     if (bad := [deg for deg in table.nonzero_degrees() if deg > 0]))
    for i, j, bad in failing:
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
    unimodular, holds iff the round trip M_al @ M_la is the identity. Square
    integer matrices have AB = I iff BA = I (det A det B = 1, so B is A's
    two-sided inverse), so one product M_lo,hi @ M_hi,lo decides both trips."""
    for k in ks:
        if not mats[(k, k)].is_identity():
            yield {"relation": "identity", "k": k}
    for k, l in mats:
        if dets[(k, l)] not in (-1, 1):
            yield {"relation": "unimodular", "k": k, "l": l, "det": dets[(k, l)]}
    trips = {}  # (lo, hi) -> whether M_lo,hi @ M_hi,lo, so M_hi,lo @ M_lo,hi, is the identity
    for k, l, m in product(ks, repeat=3):
        if min(k, m) <= l <= max(k, m):
            continue
        pair = (max(k, m), l) if l > max(k, m) else (l, min(k, m))  # (lo, hi) = {a, l}
        if pair not in trips:
            trips[pair] = (mats[pair] @ mats[pair[::-1]]).is_identity()
        if not trips[pair]:
            yield {"relation": "composition", "k": k, "l": l, "m": m}
    for k, l, shift in product(ks, repeat=3):
        if k + shift in ks and l + shift in ks:
            if mats[(k + shift, l + shift)].entries != mats[(k, l)].entries:
                yield {"relation": "det-conjugation", "k": k, "l": l, "shift": shift}


def verify_relations(ctx: Context, k_range=range(-2, 3)) -> VerificationReport:
    """Matrix-level shift relations: the identity shift, unimodularity,
    composition (by the fold for l in [k, m], else by a round trip a -> l -> a)
    and det-conjugation. Stops at the first failure; an empty `k_range`, one that repeats a
    window or names one by a non-int (bool included), or past MATRIX_LIMIT, raises ShapeError
    before any K-matrix.

    Every M_kl is read from `k_matrix` through one memo: a power of the unit step U in its
    direction, each U built once and each power multiplied once. So det M_kl = (det U)^|l - k|,
    det U taken once per direction, and det-conjugation holds by construction; what this
    certifies is det U = ±1 and U_up @ U_down = I. The per-level tests of `k_matrix` against
    `general_shift`, which twists at each level, check the det twist itself.
    """
    t0 = time.perf_counter()
    ks, memo = list(k_range), {}
    if not ks:
        raise ShapeError("k_range names no window")
    if not all(type(k) is int for k in ks):
        raise ShapeError(f"k_range names a window by a non-int: {ks}")
    ks.sort()
    if len(set(ks)) < len(ks):
        raise ShapeError(f"k_range repeats a window: {ks}")
    mats = {(k, l): k_matrix(ctx, k, l, memo) for k in ks for l in ks}
    det_u = [k_matrix(ctx, 1 - up, up, memo).determinant() for up in (0, 1)] if ks[1:] else [1]
    dets = {(k, l): det_u[l > k] ** abs(l - k) for k, l in mats}
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
