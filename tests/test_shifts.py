import random
from itertools import permutations

import pytest

from schurwin.partitions import Context, GeneratorLabel, ShapeError, canonicalize
from schurwin.shifts import (
    Term,
    TermComplex,
    _mat_mul,
    cotwist_shift_amount,
    general_shift,
    int_determinant,
    k_class,
    k_matrix,
    shift_down_generator,
    shift_up_generator,
)
from schurwin.windows import enumerate_window, in_window


def as_tuples(ctx, tc):
    return [
        (t.degree, t.label.weight(ctx.r), t.ext_power, t.copies) for t in tc.terms
    ]


def test_term_complex_degree_contiguity():
    g = GeneratorLabel()
    TermComplex((Term(0, g), Term(1, g)))
    with pytest.raises(ShapeError):
        TermComplex((Term(0, g), Term(2, g)))
    with pytest.raises(ShapeError):
        TermComplex(())


def test_shift_down_overlap_is_identity():
    ctx = Context(4, 2)
    for w in [(1, 1), (2, 1), (2, 2)]:
        tc = shift_down_generator(ctx, canonicalize(w))
        assert tc.is_single_generator()
        assert tc.terms[0].label.weight(2) == w


def test_shift_down_rank_one_tables():
    # k < d is fixed, k = d unwinds through the full wedge chain
    for d in range(2, 9):
        ctx = Context(d, 1)
        for j in range(1, d):
            tc = shift_down_generator(ctx, canonicalize((j,)))
            assert as_tuples(ctx, tc) == [(0, (j,), 0, 1)]
        tc = shift_down_generator(ctx, canonicalize((d,)))
        assert as_tuples(ctx, tc) == [
            (i, (d - 1 - i,), d - 1 - i, 1) for i in range(d)
        ]


def test_shift_down_d4_r2_table():
    ctx = Context(4, 2)
    expect = {
        (3, 1): [(0, (2, 1), 3, 1), (1, (1, 1), 2, 1), (2, (0, 0), 0, 1)],
        (3, 2): [(0, (2, 2), 3, 1), (1, (1, 1), 1, 1), (2, (1, 0), 0, 1)],
        (3, 3): [(0, (2, 2), 2, 1), (1, (2, 1), 1, 1), (2, (2, 0), 0, 1)],
    }
    for w, terms in expect.items():
        tc = shift_down_generator(ctx, canonicalize(w))
        assert as_tuples(ctx, tc) == terms


def test_shift_down_rejects_outsiders():
    ctx = Context(4, 2)
    with pytest.raises(ShapeError):
        shift_down_generator(ctx, canonicalize((4, 1)))


def test_shift_up_examples():
    ctx = Context(4, 2)
    tc = shift_up_generator(ctx, canonicalize((0, 0)))
    assert as_tuples(ctx, tc) == [
        (-2, (3, 1), 0, 1),
        (-1, (2, 1), 3, 1),
        (0, (1, 1), 2, 1),
    ]
    tc = shift_up_generator(ctx, canonicalize((0, 0)), keep_det=True)
    assert as_tuples(ctx, tc)[0] == (-2, (3, 1), 4, 1)

    ctx21 = Context(2, 1)
    tc = shift_up_generator(ctx21, canonicalize((0,)))
    assert as_tuples(ctx21, tc) == [(-1, (2,), 0, 1), (0, (1,), 1, 1)]

    # overlap generators are fixed
    tc = shift_up_generator(ctx, canonicalize((2, 1)))
    assert tc.is_single_generator()


def test_shift_images_stay_in_target_window():
    for d in range(1, 8):
        for r in range(0, min(3, d) + 1):
            ctx = Context(d, r)
            for g in enumerate_window(ctx, 1):
                for t in shift_down_generator(ctx, g).terms:
                    assert in_window(t.label, 0, ctx)
            for g in enumerate_window(ctx, 0):
                for t in shift_up_generator(ctx, g).terms:
                    assert in_window(t.label, 1, ctx)


def test_k_matrix_known_d2_r1():
    ctx = Context(2, 1)
    down = k_matrix(ctx, 1, 0)
    assert down.entries == ((0, 1), (-1, 2))
    up = k_matrix(ctx, 0, 1)
    assert up.entries == ((2, -1), (1, 0))
    assert (up @ down).is_identity()
    assert (down @ up).is_identity()


def test_k_matrix_identity_case():
    ctx = Context(4, 2)
    assert k_matrix(ctx, 1, 1).is_identity()


def test_k_matrix_round_trips_exhaustive():
    for d in range(1, 7):
        for r in range(0, min(3, d) + 1):
            ctx = Context(d, r)
            for k in (-1, 0, 1):
                for l in (0, 1, 2):
                    prod = k_matrix(ctx, k, l) @ k_matrix(ctx, l, k)
                    assert prod.is_identity(), (d, r, k, l)


def test_k_matrix_unimodular():
    for d in range(1, 7):
        for r in range(0, min(3, d) + 1):
            ctx = Context(d, r)
            for k, l in [(1, 0), (0, 1), (2, 0), (-1, 1)]:
                assert k_matrix(ctx, k, l).determinant() in (-1, 1)


def test_int_determinant():
    assert int_determinant(((0, 1), (-1, 2))) == 1
    assert int_determinant(((1, 2), (2, 4))) == 0
    assert int_determinant(((2,),)) == 2
    assert int_determinant(((0, 2), (3, 0))) == -6
    assert int_determinant(()) == 1


def leibniz_determinant(rows):
    """Sum over permutations of signed products: independent of elimination."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_int_determinant_matches_leibniz_expansion():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert int_determinant(rows) == leibniz_determinant(rows)


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        _mat_mul(((1, 2), (3, 4)), ((1, 0, 0),))


def test_general_shift_identity_and_single_step():
    ctx = Context(4, 2)
    g = canonicalize((3, 2))
    assert general_shift(ctx, 1, 1, g).is_single_generator()
    one = general_shift(ctx, 1, 0, g)
    direct = shift_down_generator(ctx, g)
    assert one.terms == direct.terms
    assert one.honest


def test_general_shift_two_steps_matches_matrix():
    ctx = Context(2, 1)
    g = canonicalize((2,))
    sk = general_shift(ctx, 2, 0, g)
    assert not sk.honest
    basis = enumerate_window(ctx, 0)
    vec = k_class(ctx, sk, basis)
    row_index = enumerate_window(ctx, 2).index(g)
    assert vec == k_matrix(ctx, 2, 0).entries[row_index]


def test_general_shift_k_class_consistency_sweep():
    for d, r in [(3, 1), (4, 2), (3, 3)]:
        ctx = Context(d, r)
        for from_k, to_k in [(1, -1), (-1, 1), (2, 0)]:
            src = enumerate_window(ctx, from_k)
            dst = enumerate_window(ctx, to_k)
            mat = k_matrix(ctx, from_k, to_k)
            for i, g in enumerate(src):
                sk = general_shift(ctx, from_k, to_k, g)
                assert k_class(ctx, sk, dst) == mat.entries[i]


def test_general_shift_rejects_wrong_window():
    ctx = Context(4, 2)
    with pytest.raises(ShapeError):
        general_shift(ctx, 0, 1, canonicalize((3, 3)))


def test_k_class_outside_basis_is_an_error():
    ctx = Context(4, 2)
    tc = shift_up_generator(ctx, canonicalize((0, 0)))
    with pytest.raises(ShapeError):
        k_class(ctx, tc, enumerate_window(ctx, 0))


def test_cotwist_shift_amount():
    assert cotwist_shift_amount(Context(2, 1)) == 1
    assert cotwist_shift_amount(Context(4, 2)) == 3
    assert cotwist_shift_amount(Context(7, 3)) == 7


def test_k_matrix_translation_invariance():
    # unit steps at any level reduce to the same integer matrix
    ctx = Context(4, 2)
    base_down = k_matrix(ctx, 1, 0).entries
    for k in (-2, 0, 3):
        assert k_matrix(ctx, k + 1, k).entries == base_down
