import json
import random
import re
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from math import lcm

import pytest

from schurwin import bott, shifts, symfunc, verify
from schurwin.partitions import (
    Context, Partition, ShapeError, _bareiss, box_partitions, dual_weight
)
from schurwin.staircase import StaircaseStep, admissible_bases, staircase_diagrams
from schurwin.symfunc import elementary_at, schur_at
from schurwin.verify import (
    GOLDEN_INDEX,
    SAMPLE_LIMIT,
    VerificationReport,
    _localization_counterexample,
    localization_holds,
    localization_mutation_sweep,
    mutate_steps,
    verify_regression,
    sample_point,
    verify_euler,
    verify_localization,
    verify_relations,
    verify_tilting,
)


def test_report_requires_counterexample_on_failure():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, passed=False)


def test_sample_point_distinct_positive():
    rng = random.Random(0)
    for d in (1, 4, 7):
        t = sample_point(rng, d)
        assert len(set(t)) == d
        assert all(x > 0 for x in t)
        assert all(
            x.numerator <= 100 and x.denominator <= 100 for x in t
        )


def test_sample_limit_is_the_number_of_distinct_fractions():
    fractions = {Fraction(n, m) for n in range(1, 101) for m in range(1, 101)}
    assert SAMPLE_LIMIT == len(fractions)
    rng = random.Random(0)
    assert sample_point(rng, SAMPLE_LIMIT) == tuple(sorted(fractions))


class _NoDraws(random.Random):
    def randint(self, a, b):
        raise AssertionError("drew a sample coordinate")


def _refuse_draws_and_bases(monkeypatch):
    monkeypatch.setattr(verify.random, "Random", _NoDraws)

    def no_bases(ctx):
        raise AssertionError("enumerated bases before refusing")

    monkeypatch.setattr(verify, "admissible_bases", no_bases)


@pytest.mark.parametrize(
    "check",
    [
        lambda d: sample_point(_NoDraws(0), d),
        lambda d: verify_localization(Context(d, 1)),
        lambda d: verify_localization(Context(d, 3)),
        lambda d: localization_mutation_sweep(Context(d, 2)),
    ],
)
def test_localization_refuses_more_coordinates_than_sample_limit(monkeypatch, check):
    # no point has SAMPLE_LIMIT + 1 distinct coordinates, so the refusal must
    # come before any draw and before any base enumeration
    _refuse_draws_and_bases(monkeypatch)
    with pytest.raises(ShapeError, match=f"at most {SAMPLE_LIMIT} coordinates"):
        check(SAMPLE_LIMIT + 1)


@pytest.mark.parametrize(
    "ctx, kwargs",
    [
        # one base, but C(200, 3) fixed points at each of three points
        (Context(200, 3), {"delta": (1,)}),
        (Context(4, 2), {"samples": 10**9}),
    ],
)
def test_localization_refuses_work_past_work_limit(monkeypatch, ctx, kwargs):
    _refuse_draws_and_bases(monkeypatch)
    with pytest.raises(ShapeError, match="WORK_LIMIT"):
        verify_localization(ctx, **kwargs)


@pytest.mark.parametrize("mutations", [0, -3])
def test_mutation_sweep_refuses_no_mutations(monkeypatch, mutations):
    # no mutation tried is no evidence: refuse before any draw
    _refuse_draws_and_bases(monkeypatch)
    with pytest.raises(ShapeError, match="mutations must be at least 1"):
        localization_mutation_sweep(Context(4, 2), mutations=mutations)


@pytest.mark.parametrize(
    "ctx, mutations",
    [
        # 3 points times C(200, 3) fixed points times 199 terms for one mutation
        (Context(200, 3), 1),
        (Context(4, 2), 10**9),
    ],
)
def test_mutation_sweep_refuses_work_past_work_limit(monkeypatch, ctx, mutations):
    _refuse_draws_and_bases(monkeypatch)
    with pytest.raises(ShapeError, match="WORK_LIMIT"):
        localization_mutation_sweep(ctx, mutations=mutations)


@pytest.mark.parametrize("d, r", [(8, 4), (10, 5)])
def test_work_limit_admits_mutation_sweeps(monkeypatch, d, r):
    # the largest benchmark sweep cell and (10, 5) get past the cap to their first draw
    _refuse_draws_and_bases(monkeypatch)
    with pytest.raises(AssertionError, match="drew a sample coordinate"):
        localization_mutation_sweep(Context(d, r))


@pytest.mark.parametrize("d, r", [(7, 3), (10, 5), (12, 6)])
def test_work_limit_admits_swept_cells(monkeypatch, d, r):
    # the largest benchmark cell, the ROADMAP table's largest and (12, 6) get
    # past the cap to their first draw
    _refuse_draws_and_bases(monkeypatch)
    with pytest.raises(AssertionError, match="drew a sample coordinate"):
        verify_localization(Context(d, r))


def test_localization_identity_by_hand_d2_r1():
    # at the fixed point {1} the chain reads 1 - (1 + t2/t1) + t2/t1 = 0
    ctx = Context(2, 1)
    t = (Fraction(2, 3), Fraction(5, 7))
    steps = staircase_diagrams(ctx, Partition(())).steps
    total = schur_at((0,), (Fraction(3, 2),))
    total -= schur_at((1,), (Fraction(3, 2),)) * elementary_at(t, 1)
    total += schur_at((2,), (Fraction(3, 2),)) * elementary_at(t, 2)
    assert total == 0
    assert localization_holds(ctx, Partition(()), steps, [t])


def test_localization_passes_d4_r2():
    rep = verify_localization(Context(4, 2), seed=0)
    assert rep.passed
    assert "necessary condition" in rep.note
    rep = verify_localization(Context(4, 2), delta=(2,), seed=0)
    assert rep.passed


def test_localization_catches_corruption():
    ctx = Context(4, 2)
    rng = random.Random(1)
    points = [sample_point(rng, 4) for _ in range(3)]
    steps = staircase_diagrams(ctx, Partition((2,))).steps
    # swap one wedge exponent by hand
    bad = list(steps)
    bad[0] = StaircaseStep(bad[0].delta, bad[0].s + 1)
    assert not localization_holds(ctx, Partition((2,)), tuple(bad), points)
    rep = verify_localization(ctx, seed=3)
    assert rep.passed and rep.counterexample is None


def test_localization_report_failure_has_witness():
    # run the checker against corrupted data through the mutation sweep
    rep = localization_mutation_sweep(Context(4, 2), mutations=10, seed=5)
    assert rep.passed  # all mutations caught, so the sweep itself passes


@pytest.mark.parametrize("d", range(1, 7))
def test_mutation_sweep_rejects_rank_zero(d):
    # r = 0 has no staircase base to corrupt
    with pytest.raises(ShapeError, match="no staircase bases exist for r = 0"):
        localization_mutation_sweep(Context(d, 0))


def test_mutations_always_change_something():
    ctx = Context(4, 2)
    rng = random.Random(9)
    steps = staircase_diagrams(ctx, Partition((1,))).steps
    for _ in range(50):
        mutated = mutate_steps(rng, ctx, steps)
        assert mutated != steps
        assert len(mutated) == len(steps)


def test_euler_passes_examples():
    assert verify_euler(Context(2, 1)).passed
    rep = verify_euler(Context(4, 2))
    assert rep.passed
    for base in [(), (1,), (2,)]:
        assert verify_euler(Context(4, 2), delta=base).passed


def test_euler_catches_corruption():
    # feeding a wrong base against the real staircase of another must fail
    ctx = Context(4, 2)
    import schurwin.verify as V
    from schurwin.bott import HomogeneousWeight, euler_character

    base = Partition((2,))
    steps = staircase_diagrams(ctx, base).steps
    q0 = (0, 0)
    total = euler_character(ctx, HomogeneousWeight((1, 0), q0))  # wrong base
    sign = -1
    for st in steps:
        chi = euler_character(ctx, HomogeneousWeight(st.delta.pad(2), q0))
        total = total + sign * chi.multiply(V._wedge_v_character(ctx, st.s))
        sign = -sign
    assert not total.is_zero()


def test_tilting_sweeps():
    rep = verify_tilting(Context(4, 2))
    assert rep.passed
    assert rep.parameters["pairs"] == 36
    assert verify_tilting(Context(2, 1)).passed


def test_relations_small():
    rep = verify_relations(Context(3, 1))
    assert rep.passed
    assert rep.parameters["cotwistShiftAmount"] == 3
    rep = verify_relations(Context(2, 2), k_range=range(-1, 2))
    assert rep.passed


def test_relations_catch_a_bad_unit_step(monkeypatch):
    # one extra copy in one unit-step image must surface as a failed relation
    honest_step = shifts._unit_step

    def bad_step(ctx, g, from_k, to_k, keep_det=False, memo=None):
        tc = honest_step(ctx, g, from_k, to_k, keep_det, memo)
        if (from_k, to_k) != (1, 2) or g.delta.parts != (1,):
            return tc
        first = tc.terms[0]._replace(copies=tc.terms[0].copies + 1)
        return shifts.TermComplex((first,) + tc.terms[1:], tc.honest)

    monkeypatch.setattr(shifts, "_unit_step", bad_step)
    rep = verify_relations(Context(4, 2))
    assert not rep.passed
    assert rep.counterexample == {"relation": "unimodular", "k": -2, "l": 2, "det": 4}


def _with_terms(tc, terms):
    return shifts.TermComplex(tuple(terms), tc.honest)


def _extra_copy(ctx, g, from_k, to_k, tc):
    if (from_k, to_k) != (1, 2) or g.delta.parts != (1,):
        return tc
    first = tc.terms[0]._replace(copies=tc.terms[0].copies + 1)
    return _with_terms(tc, (first,) + tc.terms[1:])


def _dropped_term(ctx, g, from_k, to_k, tc):
    if (from_k, to_k) != (0, -1) or len(tc.terms) < 2:
        return tc
    return _with_terms(tc, tc.terms[:-1])


def _degree_moved(ctx, g, from_k, to_k, tc):
    # both directions of one step negate together: every round trip and
    # composition still holds, only det-conjugation sees it
    if (from_k, to_k) not in ((1, 2), (2, 1)):
        return tc
    return _with_terms(tc, [t._replace(degree=t.degree + 1) for t in tc.terms])


def _ext_swapped(ctx, g, from_k, to_k, tc):
    # C(d, s) = C(d, d - s): invisible at the level of K-matrices
    return _with_terms(
        tc, [t._replace(ext_power=ctx.d - t.ext_power) if t.ext_power else t for t in tc.terms]
    )


def _overlap_doubled(ctx, g, from_k, to_k, tc):
    # the overlap generator O gets 2 copies: its row is no longer a unit row
    if (from_k, to_k) != (0, 1) or len(tc.terms) != 1 or g.delta.parts:
        return tc
    return _with_terms(tc, [tc.terms[0]._replace(copies=2)])


def _overlap_doubled_negated(ctx, g, from_k, to_k, tc):
    # as above, in odd degree: the determinant changes sign as well
    tc = _overlap_doubled(ctx, g, from_k, to_k, tc)
    if tc.terms[0].copies != 2:
        return tc
    return _with_terms(tc, [tc.terms[0]._replace(degree=1)])


def _one_direction_degree(ctx, g, from_k, to_k, tc):
    if (from_k, to_k) != (-1, -2) or len(g.delta.parts) != 1:
        return tc
    return _with_terms(tc, [t._replace(degree=t.degree + 1) for t in tc.terms])


def _one_direction_copy(ctx, g, from_k, to_k, tc):
    if (from_k, to_k) != (2, 1) or len(tc.terms) < 2:
        return tc
    last = tc.terms[-1]._replace(copies=tc.terms[-1].copies + 1)
    return _with_terms(tc, tc.terms[:-1] + (last,))


# corruption -> the relation that fails first over k in [-2, 2] (None: passes)
UNIT_STEP_CORRUPTIONS = {
    "none": (None, None),
    "extra-copy": (_extra_copy, "unimodular"),
    "dropped-term": (_dropped_term, "unimodular"),
    "degree-moved": (_degree_moved, "det-conjugation"),
    "ext-swapped": (_ext_swapped, None),
    "overlap-doubled": (_overlap_doubled, "unimodular"),
    "overlap-doubled-negated": (_overlap_doubled_negated, "unimodular"),
    "one-direction-degree": (_one_direction_degree, "composition"),
    "one-direction-copy": (_one_direction_copy, "unimodular"),
}


# every product multiplied out, round trips included: the check order that
# `verify._relation_failures` keeps while it skips what the unit-step fold decides
def _frozen_relation_failures(mats, dets, ks):
    """Every failed relation among the K-matrices, in the order checked."""
    for k in ks:
        if not mats[(k, k)].is_identity():
            yield {"relation": "identity", "k": k}
    for k, l in mats:
        if dets[(k, l)] not in (-1, 1):
            yield {"relation": "unimodular", "k": k, "l": l, "det": dets[(k, l)]}
    for k, l, m in product(ks, repeat=3):
        if (mats[(k, l)] @ mats[(l, m)]).entries != mats[(k, m)].entries:
            yield {"relation": "composition", "k": k, "l": l, "m": m}
    for k, l, shift in product(ks, repeat=3):
        if k + shift in ks and l + shift in ks:
            if mats[(k + shift, l + shift)].entries != mats[(k, l)].entries:
                yield {"relation": "det-conjugation", "k": k, "l": l, "shift": shift}
    for k, l in product(ks, repeat=2):
        if not (mats[(k, l)] @ mats[(l, k)]).is_identity():
            yield {"relation": "round-trip", "k": k, "l": l}


def _reference_relations(ctx, k_range):
    """First failure with every K-matrix built on its own, every determinant
    taken densely and every product multiplied out."""
    ks = sorted(k_range)
    mats = {(k, l): shifts.k_matrix(ctx, k, l) for k in ks for l in ks}
    dets = {kl: _bareiss([list(row) for row in m.entries]) for kl, m in mats.items()}
    return next(_frozen_relation_failures(mats, dets, ks), None)


@pytest.mark.parametrize("d, r", [(4, 2), (5, 2), (6, 3), (7, 3)])
@pytest.mark.parametrize("name", list(UNIT_STEP_CORRUPTIONS))
def test_relations_failure_sequence_matches_dense_reference(monkeypatch, name, d, r):
    corrupt, first_failure = UNIT_STEP_CORRUPTIONS[name]
    honest_step = shifts._unit_step

    def step(ctx, g, from_k, to_k, keep_det=False, memo=None):
        tc = honest_step(ctx, g, from_k, to_k, keep_det, memo)
        return tc if corrupt is None else corrupt(ctx, g, from_k, to_k, tc)

    monkeypatch.setattr(shifts, "_unit_step", step)
    ctx = Context(d, r)
    for k_range in (range(-2, 3), [0, 2], [-1, 1, 2], [3], range(-3, 4, 3), range(-4, 4), []):
        expected = _reference_relations(ctx, k_range)
        rep = verify_relations(ctx, k_range)
        assert rep.passed == (expected is None), k_range
        assert rep.counterexample == expected, k_range
        if k_range == range(-2, 3):
            assert (expected or {}).get("relation") == first_failure


def test_relations_report_a_shift_that_is_not_the_identity(monkeypatch):
    # M_kk built wrong: -1 in its first entry keeps it unimodular, so only
    # the identity relation can fail first
    honest = verify.k_matrix

    def k_matrix(ctx, k, l, memo=None):
        m = honest(ctx, k, l, memo)
        if k != l:
            return m
        return m._replace(entries=((-1, *m.entries[0][1:]), *m.entries[1:]))

    monkeypatch.setattr(verify, "k_matrix", k_matrix)
    rep = verify_relations(Context(4, 2), [1, 3])
    assert not rep.passed
    assert rep.counterexample == {"relation": "identity", "k": 1}


@pytest.mark.parametrize(
    "k_range, products", [(range(-2, 3), 32), ([0, 2], 4), ([-3, 0, 3], 20)]
)
def test_relations_multiply_only_where_undecided(monkeypatch, k_range, products):
    # the fold, plus one round-trip product M_al @ M_la per ordered pair a != l
    # that some triple (k, l, m) with l outside [k, m] and a = k or m needs
    count = [0]
    honest = shifts._mat_mul

    def counted(a, b):
        count[0] += 1
        return honest(a, b)

    monkeypatch.setattr(shifts, "_mat_mul", counted)
    assert verify_relations(Context(5, 2), k_range).passed
    assert count[0] == products


@pytest.mark.parametrize("d, r", [(7, 3), (8, 4), (10, 4), (10, 5), (11, 5)])
def test_relations_pass_larger(d, r):
    assert verify_relations(Context(d, r)).passed


def test_regression_golden_sets():
    contexts = [(4, 2), (7, 3)] + [(d, 1) for d in range(2, 9)]
    for d, r in contexts:
        rep = verify_regression(Context(d, r))
        assert rep.passed, rep.counterexample
    with pytest.raises(ShapeError):
        verify_regression(Context(5, 4))


def test_every_golden_file_has_exactly_one_index_row():
    # an orphaned golden file would otherwise go unchecked
    golden = resources.files("schurwin") / "golden"
    files = sorted(p.name for p in golden.iterdir() if p.is_file())
    assert files
    assert sorted(name for _, _, name, _ in GOLDEN_INDEX) == files


def test_reports_deterministic_given_seed():
    a = verify_localization(Context(3, 2), seed=11)
    b = verify_localization(Context(3, 2), seed=11)
    assert a.to_json_obj() == b.to_json_obj()


def test_admissible_base_sweep_passes_both_checks():
    # moderate slice of the full sweep; the acceptance suite runs it all
    for d, r in [(5, 2), (5, 3), (4, 3)]:
        ctx = Context(d, r)
        assert verify_localization(ctx, seed=0).passed
        assert verify_euler(ctx).passed
        assert len(admissible_bases(ctx)) > 0


def _mutated_counterexample(ctx, base, rng_seed, samples, mutate):
    rng = random.Random(rng_seed)
    points = [sample_point(rng, ctx.d) for _ in range(samples)]
    steps = list(staircase_diagrams(ctx, base).steps)
    mutate(steps)
    return _localization_counterexample(ctx, base, tuple(steps), points)


def test_localization_counterexample_bytes_pinned():
    # a failing report carries the witness point and residual as strings, so
    # evaluation must reproduce them byte for byte
    def raise_first_wedge(steps):
        steps[0] = StaircaseStep(steps[0].delta, steps[0].s + 1)

    ce = _mutated_counterexample(Context(4, 2), Partition((2,)), 1, 3, raise_first_wedge)
    assert json.dumps(ce, sort_keys=True) == (
        '{"delta": [2], "fixedPoint": [1, 2], '
        '"point": ["18/73", "32/49", "33/16", "98/9"], '
        '"residual": "-16923518315/23887872", '
        '"steps": [[[2, 1], 2], [[2, 2], 2], [[3, 3], 4]]}'
    )

    def raise_last_first_row(steps):
        parts = list(steps[-1].delta.pad(3))
        parts[0] += 1
        steps[-1] = StaircaseStep(Partition(tuple(parts)), steps[-1].s)

    ce = _mutated_counterexample(Context(6, 3), Partition((2, 1)), 7, 2, raise_last_first_row)
    assert ce["fixedPoint"] == [1, 2, 3]
    assert ce["point"] == ["8/65", "17/28", "47/75", "7/10", "21/10", "69/13"]
    assert ce["residual"] == "38515738378460816025/98196982796288"


def test_localization_memo_shared_across_calls():
    ctx = Context(4, 2)
    rng = random.Random(2)
    points = [sample_point(rng, 4) for _ in range(2)]
    memo = {}
    for base in admissible_bases(ctx):
        steps = staircase_diagrams(ctx, base).steps
        assert localization_holds(ctx, base, steps, points, memo)
    assert sorted(memo) == [0, 1]
    for p, (t, es, cleared) in memo.items():
        assert t == points[p]
        assert es
        for s, value in es.items():
            assert value == elementary_at(t, s)
        assert sorted(cleared) == list(combinations(range(4), 2))
        for fixed, (b, q, h) in cleared.items():
            y = tuple(1 / t[i] for i in fixed)
            assert q == lcm(*(x.denominator for x in y))
            assert b == tuple(x * q for x in y)
            assert len(h) == 5  # h_0..h_4: the top (3, 3)'s first row reads h_3..h_(3 + 1)
            assert h == symfunc._h_table(b, len(h) - 1)


def test_localization_memo_bound_to_its_points():
    ctx = Context(4, 2)
    rng = random.Random(3)
    first = [sample_point(rng, 4) for _ in range(2)]
    second = [first[0], sample_point(rng, 4)]
    base = admissible_bases(ctx)[0]
    steps = staircase_diagrams(ctx, base).steps
    memo = {}
    assert localization_holds(ctx, base, steps, first, memo)
    shown = f"point 1 as {[str(x) for x in first[1]]}, not {[str(x) for x in second[1]]}"
    with pytest.raises(ShapeError, match=re.escape(shown)):
        localization_holds(ctx, base, steps, second, memo)
    # the same points, or a prefix of them, may share the memo
    assert localization_holds(ctx, base, steps, first, memo)
    assert localization_holds(ctx, base, steps, first[:1], memo)


def _one_row_over(mu, base, r):
    """Whether mu is the base with one row inserted and each base row below it
    one box longer, the shape of every staircase term."""
    rows = base.pad(r - 1)
    return any(
        mu[:p] == rows[:p] and mu[p + 1:] == tuple(x + 1 for x in rows[p:]) for p in range(r)
    )


def _count_kernels(monkeypatch, points):
    calls = {"schur_at": [], "elementary_at": [], "_bareiss": []}

    def counted_schur(*args):
        calls["schur_at"].append(args)
        return schur_at(*args)

    def counted_elementary(t, s):
        calls["elementary_at"].append((points.index(t), s))
        return elementary_at(t, s)

    def counted_bareiss(mat):
        calls["_bareiss"].append(len(mat))
        return _bareiss(mat)

    monkeypatch.setattr(verify, "schur_at", counted_schur)
    monkeypatch.setattr(verify, "elementary_at", counted_elementary)
    monkeypatch.setattr(verify, "_bareiss", counted_bareiss)
    return calls


def test_localization_evaluates_each_value_once(monkeypatch):
    # one memo over every base of (6,3): one size-r determinant per (point,
    # fixed subset, base), no schur_at for a real staircase, whose every term
    # is one row over its base, and one elementary_at per (point, s)
    ctx = Context(6, 3)
    rng = random.Random(6)
    points = [sample_point(rng, 6) for _ in range(3)]
    calls = _count_kernels(monkeypatch, points)
    memo, wedges, bases = {}, set(), admissible_bases(ctx)
    for base in bases:
        steps = staircase_diagrams(ctx, base).steps
        assert localization_holds(ctx, base, steps, points, memo)
        assert all(_one_row_over(st.delta.pad(3), base, 3) for st in steps)
        wedges.update((p, s) for p in range(3) for s in [0] + [st.s for st in steps])
    assert calls["_bareiss"] == [3] * (len(bases) * 3 * 20)
    assert calls["schur_at"] == []
    assert sorted(calls["elementary_at"]) == sorted(wedges)
    # a corrupted staircase: schur_at exactly for the terms not over the
    # base, one per (point, subset) visited, each at its integer point
    rng = random.Random(7)
    seen = 0
    for _ in range(40):
        base = bases[rng.randrange(len(bases))]
        steps = mutate_steps(rng, ctx, staircase_diagrams(ctx, base).steps)
        off = [mu for mu in (st.delta.pad(3) for st in steps) if not _one_row_over(mu, base, 3)]
        del calls["schur_at"][:], calls["_bareiss"][:]
        ce = _localization_counterexample(ctx, base, steps, points, memo)
        assert ce is not None
        p = [[str(x) for x in t] for t in points].index(ce["point"])
        fixed = tuple(i - 1 for i in ce["fixedPoint"])
        visited = p * 20 + list(combinations(range(6), 3)).index(fixed) + 1
        assert calls["_bareiss"] == [3] * visited
        assert [args[0] for args in calls["schur_at"]] == off * visited
        for args in calls["schur_at"]:
            hash(args)
            assert [type(a) for a in args] == [tuple, tuple]
            assert {type(x) for x in args[0] + args[1]} == {int}
        seen += bool(off)
    assert seen >= 10
    assert sorted(calls["elementary_at"]) == sorted(set(calls["elementary_at"]))


def test_localization_builds_one_h_table_per_point_and_subset(monkeypatch):
    # one memo over every base of (6,3): one h-table per (point, fixed
    # subset), built by verify; a real staircase makes no schur_at call
    ctx = Context(6, 3)
    rng = random.Random(6)
    points = [sample_point(rng, 6) for _ in range(3)]
    built, h_table = [], symfunc._h_table

    def counted_h_table(b, top):
        built.append((b, top))
        return h_table(b, top)

    monkeypatch.setattr(verify, "_h_table", counted_h_table)
    monkeypatch.setattr(symfunc, "_h_table", counted_h_table)
    memo = {}
    for base in admissible_bases(ctx):
        assert localization_holds(ctx, base, staircase_diagrams(ctx, base).steps, points, memo)
    stored = [(b, len(h) - 1) for _, _, cleared in memo.values() for b, _, h in cleared.values()]
    assert len(stored) == 3 * 20
    assert sorted(built) == sorted(stored)
    # a staircase needing a longer table rebuilds it, keeping b and q
    base = admissible_bases(ctx)[0]
    steps = list(staircase_diagrams(ctx, base).steps)
    top = steps[-1].delta.pad(3)
    steps[-1] = StaircaseStep(Partition((top[0] + 1,) + top[1:]), steps[-1].s)
    kept = dict(memo[0][2])
    assert not localization_holds(ctx, base, tuple(steps), points[:1], memo)
    fixed = (0, 1, 2)  # the first subset the check visits
    b, q, h = memo[0][2][fixed]
    assert (b, q) == kept[fixed][:2]
    assert h == h_table(b, 7) and (b, 7) in built


def _term_by_term_counterexample(ctx, base, steps, points):
    """Reference: each fixed point's integer sum with one schur_at per
    (point, fixed subset, diagram), each building its own h-table, no memo."""
    r, d = ctx.r, ctx.d
    diagrams = [base.pad(r)] + [st.delta.pad(r) for st in steps]
    sizes = [sum(mu) for mu in diagrams]
    wedges = [0] + [st.s for st in steps]
    top_s, top_m = max(wedges), max(sizes)
    for t in points:
        scale = lcm(*(x.denominator for x in t)) ** top_s
        es = [elementary_at(t, s) for s in wedges]
        coeffs = [(-1) ** n * e.numerator * (scale // e.denominator) for n, e in enumerate(es)]
        for fixed in combinations(range(d), r):
            y = [Fraction(1) / t[i] for i in fixed]
            q = lcm(*(x.denominator for x in y))
            b = tuple(x.numerator * (q // x.denominator) for x in y)
            total = sum(
                c * schur_at(mu, b) * q ** (top_m - size)
                for mu, size, c in zip(diagrams, sizes, coeffs)
            )
            if total:
                return {
                    "delta": list(base.parts),
                    "fixedPoint": [i + 1 for i in fixed],
                    "point": [str(x) for x in t],
                    "residual": str(Fraction(total, scale * q**top_m)),
                    "steps": [[list(st.delta.parts), st.s] for st in steps],
                }
    return None


def test_localization_matches_term_by_term_on_every_base():
    for d in range(1, 9):
        for r in range(1, min(d, 4) + 1):
            ctx = Context(d, r)
            points = [sample_point(random.Random(10 * d + r), d)]
            memo = {}
            for base in admissible_bases(ctx):
                steps = staircase_diagrams(ctx, base).steps
                expected = _term_by_term_counterexample(ctx, base, steps, points)
                assert expected is None
                assert _localization_counterexample(ctx, base, steps, points, memo) is None


@pytest.mark.parametrize("d, r", [(6, 3), (7, 3), (8, 4)])
def test_localization_matches_term_by_term_on_mutations(d, r):
    # wedge-only mutations keep every term over the base; box moves mostly do not,
    # and both sides must agree on the verdict and the residual string
    ctx = Context(d, r)
    rng = random.Random(d * r)
    points = [sample_point(rng, d) for _ in range(2)]
    bases, memo = admissible_bases(ctx), {}
    kinds = {"wedge": 0, "over": 0, "off": 0}
    for _ in range(110):
        base = bases[rng.randrange(len(bases))]
        honest = staircase_diagrams(ctx, base).steps
        steps = mutate_steps(rng, ctx, honest)
        if [st.delta for st in steps] == [st.delta for st in honest]:
            kinds["wedge"] += 1
        elif all(_one_row_over(st.delta.pad(r), base, r) for st in steps):
            kinds["over"] += 1
        else:
            kinds["off"] += 1
        expected = _term_by_term_counterexample(ctx, base, steps, points)
        assert _localization_counterexample(ctx, base, steps, points) == expected
        assert _localization_counterexample(ctx, base, steps, points, memo) == expected
    assert kinds["wedge"] >= 30 and kinds["over"] >= 5 and kinds["off"] >= 20


def test_localization_h_table_covers_the_base_rows():
    # the combined determinant reads the base's rows up to h_(3 + 2): one past
    # what the base's own Jacobi-Trudi matrix reads
    ctx = Context(5, 3)
    rng = random.Random(11)
    points = [sample_point(rng, 5) for _ in range(2)]
    base = Partition((3, 2))
    memo = {}
    assert not localization_holds(ctx, base, (), points, memo)
    assert _localization_counterexample(ctx, base, (), points) == _term_by_term_counterexample(
        ctx, base, (), points
    )
    assert all(len(h) == 6 for _, _, h in memo[0][2].values())


def test_localization_long_inserted_row(monkeypatch):
    # a hand-built term one row over the base (1,): a row of 7 inserted on top,
    # longer than any real step's (d - r + 1 = 3), read up to h_(7 + 2)
    ctx = Context(5, 3)
    rng = random.Random(12)
    points = [sample_point(rng, 5) for _ in range(2)]
    base = Partition((1,))
    steps = staircase_diagrams(ctx, base).steps + (StaircaseStep(Partition((7, 2, 1)), 4),)
    assert _one_row_over((7, 2, 1), base, 3)
    expected = _term_by_term_counterexample(ctx, base, steps, points)
    assert expected is not None
    calls = _count_kernels(monkeypatch, points)
    memo = {}
    assert _localization_counterexample(ctx, base, steps, points, memo) == expected
    assert calls["schur_at"] == [] and calls["_bareiss"] == [3]
    assert len(memo[0][2][(0, 1, 2)][2]) == 10


def test_localization_rank_one_is_a_single_entry(monkeypatch):
    # r = 1: no base rows, so every term is over the base and the determinant is 1 x 1
    ctx = Context(4, 1)
    rng = random.Random(13)
    points = [sample_point(rng, 4) for _ in range(2)]
    base = Partition(())
    honest = staircase_diagrams(ctx, base).steps
    calls = _count_kernels(monkeypatch, points)
    assert localization_holds(ctx, base, honest, points)
    assert calls["schur_at"] == [] and calls["_bareiss"] == [1] * 2 * 4
    for steps in (honest[:-1], honest + (StaircaseStep(Partition((9,)), 2),),
                  (StaircaseStep(honest[0].delta, 3),) + honest[1:]):
        expected = _term_by_term_counterexample(ctx, base, steps, points)
        assert expected is not None
        assert _localization_counterexample(ctx, base, steps, points) == expected
    assert calls["schur_at"] == []


def test_localization_rank_zero_has_no_determinant(monkeypatch):
    # r = 0: one empty fixed subset, every term is s_() = 1 through schur_at,
    # and the sum is the alternating sum of e_s(t)
    ctx = Context(3, 0)
    rng = random.Random(14)
    points = [sample_point(rng, 3) for _ in range(2)]
    empty = Partition(())
    calls = _count_kernels(monkeypatch, points)
    for wedges in [(), (1,), (0,), (1, 2), (0, 3, 3)]:
        steps = tuple(StaircaseStep(empty, s) for s in wedges)
        expected = _term_by_term_counterexample(ctx, empty, steps, points)
        assert _localization_counterexample(ctx, empty, steps, points) == expected
        assert (expected is None) == (wedges in [(0,), (0, 3, 3)])
    assert calls["_bareiss"] == []
    assert {args[0] for args in calls["schur_at"]} == {()}


@pytest.mark.parametrize("seed", [0, 1])
def test_localization_passes_d8_r4(seed):
    assert verify_localization(Context(8, 4), seed=seed).passed


def test_localization_passes_d9_r4():
    assert verify_localization(Context(9, 4), seed=0).passed


def _fraction_counterexample(ctx, base, steps, points):
    """Reference: each fixed point's alternating sum built term by term in
    Fractions, with no memo."""
    r, d = ctx.r, ctx.d
    diagrams = [base.pad(r)] + [st.delta.pad(r) for st in steps]
    wedges = [0] + [st.s for st in steps]
    for t in points:
        coeffs = [(-1) ** n * elementary_at(t, s) for n, s in enumerate(wedges)]
        for fixed in combinations(range(d), r):
            y = tuple(1 / t[i] for i in fixed)
            total = Fraction(0)
            for mu, c in zip(diagrams, coeffs):
                total += schur_at(mu, y) * c
            if total != 0:
                return {
                    "delta": list(base.parts),
                    "fixedPoint": [i + 1 for i in fixed],
                    "point": [str(x) for x in t],
                    "residual": str(total),
                    "steps": [[list(st.delta.parts), st.s] for st in steps],
                }
    return None


def test_localization_integer_sum_matches_fraction_reference():
    # the integer sum over one common denominator per fixed point must give
    # the Fraction sum's counterexample, residual string included, with a
    # fresh memo and with one memo shared by every call of a cell
    caught = 0
    for d, r in [(3, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]:
        ctx = Context(d, r)
        rng = random.Random(100 * d + r)
        points = [sample_point(rng, d) for _ in range(2)]
        bases = admissible_bases(ctx)
        memo = {}
        cases = [(b, staircase_diagrams(ctx, b).steps) for b in bases[:2]]
        for _ in range(55):
            base = bases[rng.randrange(len(bases))]
            cases.append((base, mutate_steps(rng, ctx, staircase_diagrams(ctx, base).steps)))
        for base, steps in cases:
            expected = _fraction_counterexample(ctx, base, steps, points)
            assert _localization_counterexample(ctx, base, steps, points) == expected
            assert _localization_counterexample(ctx, base, steps, points, memo) == expected
            caught += expected is not None
    assert caught >= 300


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_localization_passes_d6_r3(seed):
    assert verify_localization(Context(6, 3), seed=seed).passed


@pytest.mark.parametrize("d, r, calls", [(6, 3, 55), (7, 3, 120)])
def test_tilting_makes_one_lr_product_per_translation_class(monkeypatch, d, r, calls):
    # m = C(d-1, r-1) translated weights give C(m+1, 2) unordered pairs
    count = [0]
    honest = bott.lr_multiply

    def counted(*args, **kwargs):
        count[0] += 1
        return honest(*args, **kwargs)

    monkeypatch.setattr(bott, "lr_multiply", counted)
    assert verify_tilting(Context(d, r)).passed
    assert count[0] == calls


@pytest.mark.parametrize("d, r, calls", [(6, 3, 165), (7, 3, 440)])
def test_tilting_decides_each_class_and_offset_once(monkeypatch, d, r, calls):
    # one Hom call per (translation class, total offset) key, not one per pair
    # (400 and 1,225), and at most one class entry alive in the sweep's memo
    count, alive = [0], []
    honest_hom, honest_class = verify.hom_bundle_cohomology, bott._lr_class

    def counted(*args):
        count[0] += 1
        return honest_hom(*args)

    def spied(r, u, v, memo=None, steps=None):
        entry = honest_class(r, u, v, memo, steps)
        alive.append(len(memo))
        return entry

    monkeypatch.setattr(verify, "hom_bundle_cohomology", counted)
    monkeypatch.setattr(bott, "_lr_class", spied)
    assert verify_tilting(Context(d, r)).passed
    assert count[0] == len(alive) == calls and max(alive) == 1


def _tilting_failures_per_pair(ctx, shapes, hom):
    """Reference: one `hom` call per (gamma, delta), in pair order."""
    memo, steps, weights = {}, {}, {}
    for gamma, delta in product(shapes, repeat=2):
        table = hom(ctx, gamma, delta, memo, steps, weights)
        bad = [deg for deg in table.nonzero_degrees() if deg > 0]
        if bad:
            yield {"gamma": list(gamma.parts), "delta": list(delta.parts), "degrees": bad}


def _hom_key(r, gamma, delta):
    """(sorted pair of translated weights, total offset) of Hom(S^v(gamma), S^v(delta))."""
    u, v = dual_weight(gamma.pad(r)), delta.pad(r)
    pair = tuple(sorted((tuple(x - u[-1] for x in u), tuple(x - v[-1] for x in v))))
    return pair, -u[-1] - v[-1]


@pytest.mark.parametrize("d, r", [(5, 2), (6, 3)])
def test_tilting_reports_the_first_failing_pair_in_pair_order(monkeypatch, d, r):
    ctx = Context(d, r)
    shapes = box_partitions(r, d - r)
    first_pair, class_rank = {}, {}
    for n, (gamma, delta) in enumerate(product(shapes, repeat=2)):
        key = _hom_key(r, gamma, delta)
        first_pair.setdefault(key, n)
        class_rank.setdefault(key[0], len(class_rank))
    # a class grouped later whose key owns an earlier pair than a key of an earlier class
    crossed = next((a, b) for a in first_pair for b in first_pair
                   if class_rank[a[0]] < class_rank[b[0]] and first_pair[b] < first_pair[a])
    rng = random.Random(d)
    keys = list(first_pair)
    honest = verify.hom_bundle_cohomology
    for chosen in [crossed] + [rng.sample(keys, k) for k in (1, 1, 2, 3, 5)]:
        decided = []

        def hom_with_ext(ctx, gamma, delta, *tables):
            table = honest(ctx, gamma, delta, *tables)
            key = _hom_key(r, gamma, delta)
            decided.append(key)
            if key in chosen:
                table.add(1 + first_pair[key] % 3, (0,) * d)
            return table

        monkeypatch.setattr(verify, "hom_bundle_cohomology", hom_with_ext)
        report = verify_tilting(ctx)
        order = {key: n for n, key in reversed(list(enumerate(decided)))}
        expected = next(_tilting_failures_per_pair(ctx, shapes, hom_with_ext))
        assert not report.passed and report.counterexample == expected
        if chosen is crossed:  # the sweep decides a first, but b's pair comes first
            assert order[crossed[0]] < order[crossed[1]]
            gamma, delta = list(product(shapes, repeat=2))[first_pair[crossed[1]]]
            assert (expected["gamma"], expected["delta"]) == (list(gamma.parts), list(delta.parts))


@pytest.mark.parametrize("d, r", [(7, 3), (7, 4), (8, 3), (8, 4), (9, 4), (9, 5), (10, 4)])
def test_tilting_passes_larger(d, r):
    assert verify_tilting(Context(d, r)).passed


@pytest.mark.parametrize("d, r", [(8, 4), (10, 3), (9, 4), (10, 4), (10, 5), (11, 5)])
def test_euler_passes_larger(d, r):
    assert verify_euler(Context(d, r)).passed


def test_euler_takes_one_character_per_diagram(monkeypatch):
    # the staircases of different bases share diagrams: at (6,3) its 15 bases
    # make 75 Euler characters, of 35 distinct diagrams, and each is made once
    made = []
    honest = verify.euler_character

    def counted(ctx, hw):
        made.append(hw)
        return honest(ctx, hw)

    monkeypatch.setattr(verify, "euler_character", counted)
    assert verify_euler(Context(6, 3)).passed
    assert len(made) == len(set(made)) == 35


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_euler_and_tilting_edge_contexts(d):
    # Gr(0, d) and Gr(d, d) are points: no staircase bases, one box generator
    for r in (0, d):
        ctx = Context(d, r)
        euler, tilting = verify_euler(ctx), verify_tilting(ctx)
        assert (euler.passed, euler.parameters) == (
            True, {"d": d, "r": r, "deltas": "all admissible"}
        )
        assert (tilting.passed, tilting.parameters) == (True, {"d": d, "r": r, "pairs": 1})


def _euler_residual_by_fold(ctx, base, steps):
    """Reference: the residual as the `total + sign * ...` fold of expansions."""
    from schurwin.bott import HomogeneousWeight, euler_character

    q0 = (0,) * (ctx.d - ctx.r)
    total = euler_character(ctx, HomogeneousWeight(base.pad(ctx.r), q0))
    sign = -1
    for st in steps:
        chi = euler_character(ctx, HomogeneousWeight(st.delta.pad(ctx.r), q0))
        total = total + sign * chi.multiply(verify._wedge_v_character(ctx, st.s))
        sign = -sign
    return [[list(k), c] for k, c in total.items()]


@pytest.mark.parametrize("d, r", [(4, 2), (5, 2), (6, 3)])
def test_euler_residuals_on_corrupted_staircases_match_the_fold(monkeypatch, d, r):
    ctx = Context(d, r)
    honest = verify.staircase_diagrams
    failed = 0
    for seed in range(12):
        rng = random.Random(seed)
        bases = admissible_bases(ctx)
        base = bases[rng.randrange(len(bases))]
        data = honest(ctx, base)
        mutated = data._replace(steps=mutate_steps(rng, ctx, data.steps))
        monkeypatch.setattr(verify, "staircase_diagrams", lambda ctx, b: mutated)
        report = verify_euler(ctx, delta=base.parts)
        residual = _euler_residual_by_fold(ctx, base, mutated.steps)
        assert report.passed == (residual == [])
        if residual:
            assert report.counterexample == {"delta": list(base.parts), "residual": residual}
            failed += 1
    assert failed >= 10


def _failing_reports(monkeypatch):
    """Each suite's report with one of the names `verify` binds corrupted."""
    import schurwin.verify as V

    ctx = Context(4, 2)
    honest_diagrams = V.staircase_diagrams

    def first_wedge_raised(ctx, base):
        data = honest_diagrams(ctx, base)
        first = StaircaseStep(data.steps[0].delta, data.steps[0].s + 1)
        return data._replace(steps=(first,) + data.steps[1:])

    with monkeypatch.context() as m:
        m.setattr(V, "staircase_diagrams", first_wedge_raised)
        yield "localization", V.verify_localization(ctx, samples=1, seed=2)
        yield "localization-delta", V.verify_localization(ctx, delta=(2,), samples=1, seed=2)
        yield "euler", V.verify_euler(ctx)
    with monkeypatch.context() as m:
        m.setattr(V, "localization_holds", lambda *args: True)
        yield "mutations", V.localization_mutation_sweep(ctx, mutations=2, seed=1)
    honest_hom = V.hom_bundle_cohomology

    def hom_with_ext2(ctx, gamma, delta, *tables):
        table = honest_hom(ctx, gamma, delta, *tables)
        if (gamma.parts, delta.parts) == ((2, 1), (1,)):
            table.add(2, (0, 0, 0, 0))
        return table

    with monkeypatch.context() as m:
        m.setattr(V, "hom_bundle_cohomology", hom_with_ext2)
        yield "tilting", V.verify_tilting(ctx)
    honest_read = V._read_golden

    def read_altered(name):
        text = honest_read(name)
        return text.replace("∧^1", "∧^2") if name == "sequences_d2_r1.txt" else text

    with monkeypatch.context() as m:
        m.setattr(V, "_read_golden", read_altered)
        yield "regression", V.verify_regression(Context(2, 1))


FAILING_REPORTS = {
    "localization": {
        "check": "localization",
        "parameters": {"d": 4, "r": 2, "samples": 1, "seed": 2, "deltas": "all admissible"},
        "pass": False,
        "counterexample": {
            "delta": [],
            "fixedPoint": [1, 2],
            "point": ["22/95", "11/47", "2/3", "43/20"],
            "residual": "176723/4840",
            "steps": [[[1, 1], 3], [[2, 1], 3], [[3, 1], 4]],
        },
        "note": "fixed-point identity failed",
    },
    "localization-delta": {
        "check": "localization",
        "parameters": {"d": 4, "r": 2, "samples": 1, "seed": 2, "deltas": [2]},
        "pass": False,
        "counterexample": {
            "delta": [2],
            "fixedPoint": [1, 2],
            "point": ["22/95", "11/47", "2/3", "43/20"],
            "residual": "1019529/13310",
            "steps": [[[2, 1], 2], [[2, 2], 2], [[3, 3], 4]],
        },
        "note": "fixed-point identity failed",
    },
    "euler": {
        "check": "euler",
        "parameters": {"d": 4, "r": 2, "deltas": "all admissible"},
        "pass": False,
        "counterexample": {
            "delta": [],
            "residual": [
                [[], 1],
                [[0, 0, 0, -1], -1],
                [[1, 0, -1, -1], -1],
                [[1, 0, 0, -1], 1],
                [[1, 1, -1, -1], 1],
            ],
        },
        "note": "character balance failed",
    },
    "mutations": {
        "check": "localization-mutations",
        "parameters": {"d": 4, "r": 2, "mutations": 2, "seed": 1},
        "pass": False,
        "counterexample": {
            "undetected": [
                {"mutation": 0, "delta": [2], "steps": [[[2, 1], 1], [[2, 2], 2], [[4, 3], 4]]},
                {"mutation": 1, "delta": [], "steps": [[[1, 1], 4], [[2, 1], 3], [[3, 1], 4]]},
            ]
        },
        "note": "some corruption went undetected",
    },
    "tilting": {
        "check": "tilting",
        "parameters": {"d": 4, "r": 2, "pairs": 36},
        "pass": False,
        "counterexample": {"gamma": [2, 1], "delta": [1], "degrees": [2]},
        "note": "higher cohomology found inside the box",
    },
    "regression": {
        "check": "regression",
        "parameters": {"d": 2, "r": 1, "files": ["shift_table_d2_r1.txt", "sequences_d2_r1.txt"]},
        "pass": False,
        "counterexample": {
            "file": "sequences_d2_r1.txt",
            "expected": ["0 → S∨(2) ⊗ ∧^2 V → S∨(1) ⊗ ∧^2 V → O → 0"],
            "actual": ["0 → S∨(2) ⊗ ∧^2 V → S∨(1) ⊗ ∧^1 V → O → 0"],
        },
        "note": "golden mismatch",
    },
}


def test_failing_reports_pinned(monkeypatch):
    # every suite's failing report, whole, as the hand-built reports gave it
    reports = dict(_failing_reports(monkeypatch))
    assert list(reports) == list(FAILING_REPORTS)
    for name, rep in reports.items():
        assert rep.to_json_obj() == FAILING_REPORTS[name], name
        assert rep.timing > 0, name
