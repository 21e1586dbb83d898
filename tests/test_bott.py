import random
from itertools import product

import pytest

import schurwin.bott as bott
from schurwin.bott import (
    CohomologyTable,
    HomogeneousWeight,
    bwb,
    euler_character,
    hom_bundle_cohomology,
    hom_sweep,
    serre_dual,
)
from schurwin.partitions import (
    Context, Partition, ShapeError, _strip, box_partitions, dual_weight
)
from schurwin.symfunc import dimension_gl, lr_multiply
from schurwin.verify import verify_tilting


def schur_bundle_weight(ctx, delta, dual=False):
    """Homogeneous weight of S^v(delta), or of S^(delta) = S^v(delta)^v when dual=True."""
    w = delta.pad(ctx.r)
    return HomogeneousWeight(dual_weight(w) if dual else w, (0,) * (ctx.d - ctx.r))


def line_bundle_on_p1(w):
    """O(w) on the projective line: sPart = (w), qPart = (0)."""
    return HomogeneousWeight((w,), (0,))


def classical_p1_dims(w):
    """Independent oracle: dim H^0 and H^1 of O(w) on the projective line."""
    h0 = w + 1 if w >= 0 else 0
    h1 = -w - 1 if w <= -2 else 0
    return h0, h1


def test_p1_convention_pins():
    ctx = Context(2, 1)
    table = bwb(ctx, line_bundle_on_p1(0))
    assert table.groups == {0: {(0, 0): 1}}
    assert bwb(ctx, line_bundle_on_p1(-1)).is_zero()
    table = bwb(ctx, line_bundle_on_p1(-2))
    assert table.nonzero_degrees() == (1,)
    assert table.dimension(1, 2) == 1


def test_p1_line_bundles_match_classical_dims():
    ctx = Context(2, 1)
    for w in range(-7, 8):
        table = bwb(ctx, line_bundle_on_p1(w))
        h0, h1 = classical_p1_dims(w)
        assert table.dimension(0, 2) == h0
        assert table.dimension(1, 2) == h1


def test_projective_space_sections():
    # H^0(P^{d-1}, O(k)) has dimension C(k+d-1, d-1); higher cohomology vanishes
    from math import comb

    for d in range(2, 6):
        ctx = Context(d, 1)
        for k in range(5):
            table = hom_bundle_cohomology(ctx, Partition(()), Partition((k,)))
            assert table.nonzero_degrees() in ((), (0,))
            assert table.dimension(0, d) == comb(k + d - 1, d - 1)


def test_bwb_dichotomy_on_random_weights():
    rng = random.Random(19)
    for _ in range(200):
        d = rng.randint(1, 5)
        r = rng.randint(0, d)
        ctx = Context(d, r)
        s = tuple(sorted((rng.randint(-5, 5) for _ in range(r)), reverse=True))
        q = tuple(sorted((rng.randint(-5, 5) for _ in range(d - r)), reverse=True))
        table = bwb(ctx, HomogeneousWeight(s, q))
        assert len(table.nonzero_degrees()) <= 1
        for deg, row in table.groups.items():
            assert 0 <= deg <= d * (d - 1) // 2
            assert all(m > 0 for m in row.values())


def _sorted_dotted_weyl(lam):
    """Reference: sort the rho-shifted weight and count its inversions."""
    d = len(lam)
    v = [a - i for i, a in enumerate(lam)]
    if len(set(v)) != d:
        return None
    inversions = sum(1 for i in range(d) for j in range(i + 1, d) if v[i] < v[j])
    return inversions, tuple(a + i for i, a in enumerate(sorted(v, reverse=True)))


def test_dotted_weyl_matches_sort_and_count():
    rng = random.Random(23)
    seen = set()
    for _ in range(3000):
        d = rng.randint(0, 9)
        r = rng.randint(0, d)
        s = tuple(sorted((rng.randint(-6, 6) for _ in range(r)), reverse=True))
        q = tuple(sorted((rng.randint(-6, 6) for _ in range(d - r)), reverse=True))
        hit = bott._dotted_weyl(s, q)
        assert hit == _sorted_dotted_weyl(s + q)
        seen.add((hit is None, any(q)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_bwb_shape_mismatch():
    with pytest.raises(ShapeError):
        bwb(Context(3, 1), HomogeneousWeight((0, 0), (0,)))


def test_serre_duality_small_grassmannians():
    for d in range(2, 6):
        for r in range(1, min(2, d) + 1):
            ctx = Context(d, r)
            dim = r * (d - r)
            for delta in box_partitions(r, d - r):
                hw = schur_bundle_weight(ctx, delta)
                dual = serre_dual(ctx, hw)
                t1, t2 = bwb(ctx, hw), bwb(ctx, dual)
                for i in range(dim + 1):
                    assert t1.dimension(i, d) == t2.dimension(dim - i, d)


def test_borel_weil_sections():
    for d in range(1, 6):
        for r in range(0, d + 1):
            ctx = Context(d, r)
            for delta in box_partitions(r, d - r):
                table = bwb(ctx, schur_bundle_weight(ctx, delta))
                assert table.nonzero_degrees() == (0,)
                assert table.dimension(0, d) == dimension_gl(delta.pad(d), d)


def test_schur_bundle_weight_dual_flag():
    ctx = Context(4, 2)
    hw = schur_bundle_weight(ctx, Partition((2, 1)), dual=True)
    assert hw.s_part == (-1, -2)
    assert hw.q_part == (0, 0)


def test_hom_bundle_exceptionality_d4_r2():
    ctx = Context(4, 2)
    shapes = box_partitions(2, 2)
    for gamma in shapes:
        for delta in shapes:
            table = hom_bundle_cohomology(ctx, gamma, delta)
            assert all(deg == 0 for deg in table.nonzero_degrees())
    # equal shapes always carry the identity in degree zero
    for gamma in shapes:
        table = hom_bundle_cohomology(ctx, gamma, gamma)
        zero_row = table.groups.get(0, {})
        assert zero_row.get((0, 0, 0, 0), 0) >= 1


def test_endomorphisms_are_one_dimensional():
    # irreducible homogeneous bundles are simple, so End(E) has exactly a
    # one-dimensional space of global sections; sharp probe of the pipeline
    for d in range(2, 7):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            for gamma in box_partitions(r, d - r):
                table = hom_bundle_cohomology(ctx, gamma, gamma)
                assert table.dimension(0, d) == 1, (d, r, gamma)


def test_hom_bundle_p1_examples():
    ctx = Context(2, 1)
    table = hom_bundle_cohomology(ctx, Partition(()), Partition((1,)))
    assert table.dimension(0, 2) == 2
    assert hom_bundle_cohomology(ctx, Partition((1,)), Partition(())).is_zero()


def test_euler_character_examples():
    ctx = Context(2, 1)
    assert euler_character(ctx, line_bundle_on_p1(0)).terms == {(): 1}
    assert euler_character(ctx, line_bundle_on_p1(-1)).is_zero()
    assert euler_character(ctx, line_bundle_on_p1(-2)).terms == {(-1, -1): -1}


def test_cohomology_table_json():
    t = CohomologyTable({1: {(2, 0): 3}})
    assert t.to_json_obj() == {"1": [{"weight": [2, 0], "mult": 3}]}
    t.add(1, (2, 0), -3)
    assert t.is_zero()


def test_cohomology_table_skips_zero_multiplicity_and_reprs():
    t = CohomologyTable()
    t.add(0, (1, 0), 0)
    assert t.is_zero() and t.groups == {}
    t.add(2, (1, 0))
    assert repr(t) == "CohomologyTable({2: {(1, 0): 1}})"


def test_hom_bundle_shared_memo_matches_fresh_calls():
    ctx = Context(6, 3)
    shapes = box_partitions(ctx.r, ctx.d - ctx.r)
    memo = {}
    for gamma in shapes:
        for delta in shapes:
            assert hom_bundle_cohomology(ctx, gamma, delta, memo) == hom_bundle_cohomology(
                ctx, gamma, delta
            )
    assert len(memo) == 55


def test_hom_bundle_classifies_each_class_and_offset_once(monkeypatch):
    # Hom(S^v(gamma), S^v(delta)) depends only on the translated, sorted weight
    # pair and the total offset. One call per such key, as verify_tilting makes
    # them, tests each LR term of the key once, not once per term of every box
    # pair. The Hom path reads each survivor off its bisect position, with no
    # dotted Weyl action, and each key's table is the dotted Weyl action's
    ctx = Context(6, 3)
    shapes = box_partitions(ctx.r, ctx.d - ctx.r)
    first, per_pair, lr_terms = {}, 0, {}
    for gamma, delta in product(shapes, repeat=2):
        u, v = dual_weight(gamma.pad(ctx.r)), delta.pad(ctx.r)
        pair = tuple(sorted((tuple(x - u[-1] for x in u), tuple(x - v[-1] for x in v))))
        if pair not in lr_terms:
            lr_terms[pair] = lr_multiply(pair[0], pair[1], rank=ctx.r).terms
        first.setdefault((pair, -u[-1] - v[-1]), (gamma, delta))
        per_pair += len(lr_terms[pair])
    assert (len(shapes) ** 2, len(lr_terms), len(first)) == (400, 55, 165)
    calls, tests = [0], [0]
    honest = bott._dotted_weyl
    honest_bisect = bott.bisect_left

    def counted(*args):
        calls[0] += 1
        return honest(*args)

    def counted_bisect(*args):
        tests[0] += 1
        return honest_bisect(*args)

    monkeypatch.setattr(bott, "_dotted_weyl", counted)
    monkeypatch.setattr(bott, "bisect_left", counted_bisect)
    memo = {}
    tables = {key: hom_bundle_cohomology(ctx, *gd, memo) for key, gd in first.items()}
    assert sum(len(lr_terms[pair]) for pair, _ in first) == 426 < per_pair
    assert calls[0] == 0 and tests[0] == 426 and len(memo) == 55
    tail = (0,) * (ctx.d - ctx.r)
    for (pair, total), table in tables.items():
        expected = CohomologyTable()
        for key, mult in lr_terms[pair].items():
            hit = honest(tuple(x - total for x in key + (0,) * (ctx.r - len(key))), tail)
            if hit is not None:
                expected.add(*hit, mult)
        assert table == expected, (pair, total)


@pytest.mark.parametrize("d, r", [(5, 2), (6, 3)])
def test_hom_sweep_yields_each_keys_first_pair(d, r):
    # one (i, j, table) per (translation class, total offset) key, for its first
    # pair in pair order, and every pair of the key has that table
    ctx = Context(d, r)
    shapes = box_partitions(r, d - r)
    keys = []
    for gamma, delta in product(shapes, repeat=2):
        u, v = dual_weight(gamma.pad(r)), delta.pad(r)
        pair = tuple(sorted((tuple(x - u[-1] for x in u), tuple(x - v[-1] for x in v))))
        keys.append((pair, -u[-1] - v[-1]))
    first = {}
    for n, key in enumerate(keys):
        first.setdefault(key, divmod(n, len(shapes)))
    tables = {(i, j): table for i, j, table in hom_sweep(ctx, shapes)}
    assert sorted(tables) == sorted(first.values())
    for n, (gamma, delta) in enumerate(product(shapes, repeat=2)):
        assert hom_bundle_cohomology(ctx, gamma, delta) == tables[first[keys[n]]], n


@pytest.mark.parametrize("d, r", [(6, 3), (7, 3)])
def test_hom_bundle_memo_keeps_only_the_lr_rows(d, r):
    # a per-pair sweep through one memo: each table is a fresh call's, and each
    # memo value is the class's row list [(a, mult), ...], a_i = i - key_i
    # strictly increasing, with nothing per offset or per d beside it
    ctx = Context(d, r)
    shapes = box_partitions(r, d - r)
    memo = {}
    for gamma, delta in product(shapes, repeat=2):
        assert hom_bundle_cohomology(ctx, gamma, delta, memo) == hom_bundle_cohomology(
            ctx, gamma, delta
        ), (gamma, delta)
    for (u, v), rows in memo.items():
        assert type(rows) is list, (u, v)
        keys = {}
        for a, mult in rows:
            assert len(a) == r and all(x < y for x, y in zip(a, a[1:])), a
            keys[_strip(tuple(i - x for i, x in enumerate(a)))] = mult
        assert keys == lr_multiply(u, v, rank=r).terms, (u, v)


def test_zero_q_vanish_rule_matches_dotted_weyl(monkeypatch):
    # hom_bundle_cohomology skips a term lam when some row i has
    # r <= i - lam_i <= d - 1; fed one LR term at a time it must give exactly
    # the dotted Weyl action's verdict, degree and weight
    rng = random.Random(20)
    term = {}
    monkeypatch.setattr(bott, "_lr_class", lambda *args: [
        (tuple(i - x for i, x in enumerate(k)), m) for k, m in term.items()])
    seen = set()
    for _ in range(20000):
        d = rng.randint(1, 10)
        r = rng.randint(1, d)
        lam = tuple(sorted((rng.randint(-d - 2, 3) for _ in range(r)), reverse=True))
        t = max(0, -lam[-1])  # gamma = (t) makes the total offset t
        term.clear()
        term[tuple(x + t for x in lam)] = 1
        table = hom_bundle_cohomology(Context(d, r), Partition((t,)), Partition(()))
        hit = bott._dotted_weyl(lam, (0,) * (d - r))
        assert table == CohomologyTable({} if hit is None else {hit[0]: {hit[1]: 1}}), (d, r, lam)
        seen.add((hit is None, bool(hit and hit[0])))
    assert seen == {(True, False), (False, False), (False, True)}


def _hom_by_bwb(ctx, gamma, delta):
    """Reference: the LR terms of the two weights translated to partitions, each
    less the total offset and classified alone by `bwb` with zero Q^v weight."""
    r = ctx.r
    u, v = dual_weight(gamma.pad(r)), delta.pad(r)
    cu, cv = (-u[-1], -v[-1]) if r else (0, 0)
    terms = lr_multiply(tuple(x + cu for x in u), tuple(x + cv for x in v), rank=r).terms
    table = CohomologyTable()
    for key, mult in terms.items():
        lam = tuple(x - cu - cv for x in key + (0,) * (r - len(key)))
        for deg, row in bwb(ctx, HomogeneousWeight(lam, (0,) * (ctx.d - r))).groups.items():
            for w, m in row.items():
                table.add(deg, w, m * mult)
    return table


# r -> the d sharing one memo: (3,1), (4,2), (5,1), (5,4), (6,3), (7,3), and r = 0 and r = d
CLOSED_FORM_CELLS = {0: (1, 3), 1: (3, 5, 1), 2: (4, 2), 3: (6, 7, 3), 4: (5, 4)}


@pytest.mark.parametrize("r, ds", sorted(CLOSED_FORM_CELLS.items()))
def test_hom_closed_form_matches_bwb_term_by_term(r, ds):
    # box pairs and pairs two columns past the box, fresh and through one memo
    # shared across every d at this r
    memo, positive = {}, set()
    for d in ds:
        ctx = Context(d, r)
        shapes = box_partitions(r, d - r + 2)
        for gamma, delta in product(shapes, repeat=2):
            expected = _hom_by_bwb(ctx, gamma, delta)
            assert hom_bundle_cohomology(ctx, gamma, delta) == expected, (d, gamma, delta)
            assert hom_bundle_cohomology(ctx, gamma, delta, memo) == expected, (d, gamma, delta)
            positive.update(deg for deg in expected.groups if deg > 0)
    assert bool(positive) == (r > 0 and any(d > r for d in ds))


def test_hom_bundle_memo_hit_returns_a_fresh_table():
    ctx = Context(4, 2)
    memo = {}
    for gamma, delta in [((1,), (1,)), ((), (2, 1)), ((1,), (2, 1))]:
        gamma, delta = Partition(gamma), Partition(delta)
        expected = hom_bundle_cohomology(ctx, gamma, delta)
        assert not expected.is_zero()
        for _ in range(2):  # a miss, then a hit on the same memo entry
            table = hom_bundle_cohomology(ctx, gamma, delta, memo)
            assert table == expected
            for row in table.groups.values():
                row[(9, 9, 9, 9)] = 1
            table.add(2, (0, 0, 0, 0))
    # a det twist of both factors is a hit on a mutated class and offset
    classes = len(memo)
    twisted = Partition((2, 1)), Partition((3, 2))
    assert hom_bundle_cohomology(ctx, *twisted, memo) == hom_bundle_cohomology(ctx, *twisted)
    assert len(memo) == classes


def test_hom_bundle_memo_shared_across_d():
    # the LR terms depend on r alone, the Bott hits on d as well
    memo = {}
    shapes = box_partitions(2, 2)
    for d in (4, 5, 6, 4):
        ctx = Context(d, 2)
        for gamma, delta in product(shapes, repeat=2):
            assert hom_bundle_cohomology(ctx, gamma, delta, memo) == hom_bundle_cohomology(
                ctx, gamma, delta
            )


@pytest.mark.parametrize("d, r", [(7, 3), (7, 4)])
def test_hom_bundle_memo_matches_fresh_calls_larger(d, r):
    ctx = Context(d, r)
    shapes = box_partitions(ctx.r, ctx.d - ctx.r)
    memo = {}
    for gamma, delta in product(shapes, repeat=2):
        assert hom_bundle_cohomology(ctx, gamma, delta, memo) == hom_bundle_cohomology(
            ctx, gamma, delta
        )


def test_tilting_sweep_translates_each_shape_once(monkeypatch):
    # C(6,3) = 20 box shapes, each translated once as gamma (dual) and once as
    # delta, not twice per each of the 400 pairs
    calls = [0]
    honest = bott._translated

    def counted(w):
        calls[0] += 1
        return honest(w)

    monkeypatch.setattr(bott, "_translated", counted)
    assert verify_tilting(Context(6, 3)).passed
    assert calls[0] == 2 * 20


def test_hom_bundle_tables_shared_across_contexts():
    # one `weights` and one `steps` table across several (d, r): the weights
    # are keyed by r, the DP transitions by rank
    weights, steps = {}, {}
    for d, r in [(5, 2), (6, 3), (6, 2), (7, 4), (5, 2)]:
        ctx = Context(d, r)
        memo = {}
        shapes = box_partitions(r, d - r)
        for gamma, delta in product(shapes, repeat=2):
            assert hom_bundle_cohomology(
                ctx, gamma, delta, memo, steps, weights
            ) == hom_bundle_cohomology(ctx, gamma, delta)
    assert {r for _, r, _ in weights} == {2, 3, 4}
    assert {rank for _, _, rank in steps} <= {2, 3, 4}
