import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, strategies as st

from schurwin.partitions import (
    Context,
    GeneratorLabel,
    Partition,
    ShapeError,
    _bareiss,
    box_partitions,
    canonicalize,
    check_weight,
    dual_weight,
    parse_int_tuple,
)


def all_partitions_of(n):
    """Every partition of exactly n, by first-part recursion."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in all_partitions_of(n - first):
            if not rest or rest[0] <= first:
                out.append((first, *rest))
    return out


def test_normalization_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition(()) == Partition((0, 0))
    assert len(Partition((2, 2, 1))) == 3


def test_invalid_partitions_rejected():
    with pytest.raises(ShapeError):
        Partition((1, 2))
    with pytest.raises(ShapeError):
        Partition((2, -1))


def test_conjugate_known_values():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    assert Partition((2, 2)).conjugate() == Partition((2, 2))


def test_conjugate_involution_exhaustive_up_to_12_boxes():
    for n in range(13):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            assert p.conjugate().conjugate() == p


def test_col_length_known_values():
    p = Partition((3, 1))
    assert p.col(1) == 2
    assert p.col(2) == 1
    assert p.col(3) == 1
    assert p.col(4) == 0
    for k in range(1, 6):
        assert Partition((k,)).col(1) == 1


def test_col_is_row_of_conjugate():
    for n in range(10):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            q = p.conjugate()
            for i in range(1, 8):
                assert p.col(i) == q.row(i)


def test_canonicalize_known_values():
    assert canonicalize((3, 1)) == GeneratorLabel(Partition((2,)), 1)
    assert canonicalize((1, 1)) == GeneratorLabel(Partition(()), 1)
    assert canonicalize((2, 0), -1) == GeneratorLabel(Partition((2,)), -1)
    assert canonicalize((), 5) == GeneratorLabel(Partition(()), 5)


@pytest.mark.parametrize("det_power", [1.5, Fraction(1), 1.0, "1"])
def test_canonicalize_refuses_a_non_integer_det_power(det_power):
    # 1.5 gave a label with det_power 1.5, refused only by a later `in_window`
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        canonicalize((1, 0), det_power)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        canonicalize((), det_power)
    assert canonicalize((1, 0), 1) == GeneratorLabel(Partition((1,)), 1)


def test_canonicalize_idempotent():
    # for r >= 1 the label's full weight carries the det power, so
    # re-canonicalizing it with m = 0 must reproduce the label exactly
    for w, m in [((4, 2, -1), 3), ((1, 1), 0), ((0, -5), -1)]:
        g = canonicalize(w, m)
        assert canonicalize(g.weight(len(w))) == g
    # r = 0: the det twist is trivial and m is just a name
    assert canonicalize((), 2) == GeneratorLabel(Partition(()), 2)


@st.composite
def weights(draw):
    entries = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    return tuple(sorted(entries, reverse=True))


@given(weights(), st.integers(-5, 5), st.integers(-4, 4))
def test_canonicalize_gauge_invariance(w, m, c):
    shifted = tuple(x + c for x in w)
    assert canonicalize(w, m) == canonicalize(shifted, m - c)


def test_fits_box_known_values():
    assert Partition((2, 2)).fits_box(2, 2)
    assert not Partition((3, 1)).fits_box(2, 2)
    assert Partition(()).fits_box(0, 0)
    assert Partition(()).fits_box(5, 7)


def test_fits_box_matches_window_membership():
    from schurwin.windows import in_window

    ctx = Context(5, 2)
    for n in range(9):
        for parts in all_partitions_of(n):
            p = Partition(parts)
            if len(p) > ctx.r:
                continue
            label = canonicalize(p.pad(ctx.r))
            assert p.fits_box(ctx.r, ctx.d - ctx.r) == in_window(label, 0, ctx)


def test_box_partitions_count_and_order():
    from math import comb

    for rows in range(5):
        for cols in range(5):
            shapes = box_partitions(rows, cols)
            assert len(shapes) == comb(rows + cols, rows)
            keys = [(p.size, p.parts) for p in shapes]
            assert keys == sorted(keys)
            assert len(set(shapes)) == len(shapes)
            assert all(p.fits_box(rows, cols) for p in shapes)


def test_box_partitions_tall_box():
    # one shape per row count: no recursion depth limit on the rows
    assert len(box_partitions(1000, 1)) == 1001


def test_partition_index_pad_and_box_errors():
    p = Partition((3, 1))
    with pytest.raises(ShapeError, match="row index is 1-based"):
        p.row(0)
    with pytest.raises(ShapeError, match="column index is 1-based"):
        p.col(0)
    with pytest.raises(ShapeError, match=r"\[3, 1\] has more than 1 parts"):
        p.pad(1)
    with pytest.raises(AttributeError, match="cannot delete field 'parts'"):
        del p.parts
    assert p.parts == (3, 1)
    for rows, cols in ((-1, 2), (2, -1)):
        with pytest.raises(ShapeError, match="box dimensions must be non-negative"):
            p.fits_box(rows, cols)
        with pytest.raises(ShapeError, match="box dimensions must be non-negative"):
            box_partitions(rows, cols)


def test_context_validation():
    Context(4, 0)
    Context(4, 4)
    with pytest.raises(ShapeError):
        Context(0, 0)
    with pytest.raises(ShapeError):
        Context(3, 4)
    ctx = Context(7, 3)
    assert ctx.box_rows == 3
    assert ctx.box_cols == 4
    assert ctx.staircase_length == 5


@pytest.mark.parametrize("d, r, name", [
    (4.0, 2, "d"), (True, 1, "d"), (4, 2.0, "r"), ("4", 2, "d"), (4, False, "r"),
])
def test_context_refuses_a_d_or_r_that_is_not_an_int(d, r, name):
    # (4.0, 2) and (4, 2.0) failed later inside `comb`; (True, 1) reported "d": true
    with pytest.raises(ShapeError, match=f"^{name} must be an int, not "):
        Context(d, r)
    with pytest.raises(ShapeError, match=f"^{name} must be an int, not "):
        Context(4, 2)._replace(d=d, r=r)


def test_weight_helpers():
    assert check_weight((3, 1, -2)) == (3, 1, -2)
    with pytest.raises(ShapeError):
        check_weight((1, 2))
    with pytest.raises(ShapeError):
        check_weight((1, 0), length=3)
    assert dual_weight((3, 1, -2)) == (2, -1, -3)


@pytest.mark.parametrize("x", [1.5, 2.0, Fraction(3, 2), Fraction(4, 2)])
def test_weights_and_partitions_refuse_non_int_entries(x):
    # int() would truncate: check_weight((1.5, 0)) was (1, 0), Partition((2.5, 1)) had parts (2, 1)
    with pytest.raises(TypeError):
        check_weight((x, 0))
    with pytest.raises(TypeError):
        check_weight((3, x, 0), length=3)
    with pytest.raises(TypeError):
        Partition((x + 1, 1))
    with pytest.raises(TypeError):
        canonicalize((x, 0))


def test_weights_and_partitions_keep_ints_exact():
    # bools and other int subclasses become plain ints; a string stays refused
    for w in (check_weight((True, False, -1)), Partition((True, True)).parts):
        assert all(type(x) is int for x in w)
    assert check_weight((True, False, -1)) == (1, 0, -1)
    assert Partition((2, True)).parts == (2, 1)
    with pytest.raises(TypeError):
        check_weight(("1", "0"))
    assert parse_int_tuple(" 2, 1 ") == (2, 1)  # the CLI's strings still go through int()


def test_parse_int_tuple():
    assert parse_int_tuple("3,1") == (3, 1)
    assert parse_int_tuple("") == ()
    assert parse_int_tuple("0,0") == (0, 0)
    assert parse_int_tuple("-1,-2") == (-1, -2)
    with pytest.raises(ShapeError):
        parse_int_tuple("a,b")


def test_generator_label_weight_roundtrip():
    g = GeneratorLabel(Partition((2, 1)), -3)
    assert g.weight(3) == (-1, -2, -3)
    assert canonicalize(g.weight(3)) == g


def test_shared_rules_have_one_home():
    from schurwin import bott, partitions, shifts, symfunc, verify

    assert bott._dotted_weyl is symfunc._dotted_weyl is partitions._dotted_weyl
    assert bott._translated is symfunc._translated is partitions._translated
    assert shifts._bareiss is symfunc._bareiss is partitions._bareiss
    assert verify._refuse_non_ints is partitions._refuse_non_ints
    for name in ("_dotted_weyl", "_translated", "_bareiss", "_refuse_non_ints"):
        assert getattr(partitions, name).__module__ == "schurwin.partitions"


def _leibniz(a):
    """det a as the signed sum over permutations, the oracle for `_bareiss`."""
    n, total = len(a), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def _matrices(n, rng):
    """(kind, matrix) pairs of size n: random entries small and ~40 digits, singular ones, a
    zero leading pivot, a zero first column and the reversal permutation (a swap per step)."""
    def rand(bound):
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]

    for k in range(4):
        yield f"small-{k}", rand(3)
        yield f"big-{k}", rand(10**40)
    if n:
        a = rand(5)
        a[-1] = [x + 2 * y for x, y in zip(a[0], a[n // 2])]  # a dependent last row
        yield "dependent-row", a
        a = rand(10**40)
        a[0] = [0] * n
        yield "zero-row", a
        a = rand(9)
        a[0][0] = 0
        yield "zero-pivot", a
        a = rand(9)
        for row in a:
            row[0] = 0
        yield "zero-column", a
        yield "reversal", [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
    else:
        yield "empty", []


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("rows", [list, tuple])
def test_bareiss_matches_leibniz(n, rows):
    # two paths, cofactors up to 3 x 3 and elimination beyond, against one independent oracle
    for kind, a in _matrices(n, random.Random(n)):
        a = [rows(row) for row in a]
        before = [tuple(row) for row in a]
        assert _bareiss(a) == _leibniz(before), (n, kind)
        assert [tuple(row) for row in a] == before, (n, kind)  # not consumed
        assert all(type(row) is rows for row in a), (n, kind)
