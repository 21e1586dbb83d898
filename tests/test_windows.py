from itertools import product
from math import comb

import pytest

from schurwin import windows
from schurwin.partitions import (
    Context,
    GeneratorLabel,
    Partition,
    ShapeError,
    _canonical,
    box_partitions,
    canonicalize,
    graded_lex_key,
)
from schurwin.windows import WINDOW_LIMIT, enumerate_window, in_window


def weights_of(ctx, labels):
    return [g.weight(ctx.r) for g in labels]


def test_window_d4_r2_k0():
    ctx = Context(4, 2)
    assert weights_of(ctx, enumerate_window(ctx, 0)) == [
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
        (2, 2),
    ]
    assert all(g.det_power + g.delta.row(1) >= 0 for g in enumerate_window(ctx, 0))


def test_window_rank_one():
    for d in (3, 5):
        ctx = Context(d, 1)
        assert weights_of(ctx, enumerate_window(ctx, 1)) == [
            (j,) for j in range(1, d + 1)
        ]
        assert weights_of(ctx, enumerate_window(ctx, 0)) == [
            (j,) for j in range(d)
        ]


def test_window_d3_r1_size():
    ctx = Context(3, 1)
    labels = enumerate_window(ctx, 0)
    assert len(labels) == comb(3, 1)
    assert weights_of(ctx, labels) == [(0,), (1,), (2,)]


def test_window_labels_are_canonical():
    ctx = Context(5, 3)
    for k in (-2, 0, 2):
        for g in enumerate_window(ctx, k):
            assert canonicalize(g.weight(ctx.r)) == g


def test_cardinality_sweep():
    for d in range(1, 9):
        for r in range(0, min(4, d) + 1):
            ctx = Context(d, r)
            for k in range(-2, 3):
                assert len(enumerate_window(ctx, k)) == comb(d, r)


def test_overlap_cardinality():
    # consecutive windows share exactly C(d-1, r) generators
    for d in range(1, 8):
        for r in range(0, min(3, d) + 1):
            ctx = Context(d, r)
            for k in (-1, 0, 1):
                both = [
                    g
                    for g in enumerate_window(ctx, k)
                    if in_window(g, k + 1, ctx)
                ]
                assert len(both) == comb(d - 1, r), (d, r, k)


def test_membership_matches_enumeration():
    # at r = 0 the det twist is trivial, so membership is k-independent and
    # the label-set equivalence below only makes sense for r >= 1
    for d in range(1, 7):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            window_sets = {k: set(enumerate_window(ctx, k)) for k in range(-2, 3)}
            universe = set().union(*window_sets.values())
            for k, members in window_sets.items():
                for g in universe:
                    assert in_window(g, k, ctx) == (g in members), (d, r, k, g)


def test_raw_window_rule_agrees_with_in_window():
    # `shifts.general_shift` tests its raw (parts, det) nodes with `_in_box`,
    # the rule `in_window` reads: both agree with the box test on the weight,
    # for a label with r parts and for its canonical name alike
    for d in range(1, 9):
        for r in range(1, d + 1):
            ctx = Context(d, r)
            for p in box_partitions(r, d - r + 2):
                q, c = _canonical(p.parts, r)
                for m, k in product(range(-3, 4), range(-2, 3)):
                    w = [x + m - k for x in p.pad(r)]
                    expect = w[-1] >= 0 and w[0] <= d - r
                    assert in_window(GeneratorLabel(p, m), k, ctx) == expect, (d, r, p, m, k)
                    assert windows._in_box(p.parts, m, k, ctx) == expect, (d, r, p, m, k)
                    assert windows._in_box(q, m + c, k, ctx) == expect, (d, r, p, m, k)


def test_overlap_example_d4_r2():
    ctx = Context(4, 2)
    g = canonicalize((2, 1))
    assert in_window(g, 0, ctx) and in_window(g, 1, ctx)
    g = canonicalize((3, 3))
    assert in_window(g, 1, ctx) and not in_window(g, 0, ctx)
    assert in_window(GeneratorLabel(Partition(()), 0), 0, ctx)


def test_rank_zero_window():
    ctx = Context(3, 0)
    labels = enumerate_window(ctx, 2)
    assert len(labels) == 1
    assert labels[0].det_power == 2
    assert in_window(labels[0], -1, ctx)  # det is trivial at rank zero


def test_window_order_needs_no_resort():
    # box_partitions is graded-lex already and a det twist shifts every entry
    # by one constant, so the enumeration is sorted without sorting it again
    for d in range(1, 9):
        for r in range(d + 1):
            ctx = Context(d, r)
            for k in range(-3, 4):
                labels = enumerate_window(ctx, k)
                resorted = sorted(labels, key=lambda g: graded_lex_key(g.weight(r)))
                assert labels == resorted, (d, r, k)


def refuse_to_list(*args):
    raise AssertionError("box_partitions ran past the window limit")


@pytest.mark.parametrize("d, r", [(23, 11), (40, 20), (10**6 + 1, 1)])
def test_window_past_the_limit_is_refused_before_listing(monkeypatch, d, r):
    monkeypatch.setattr(windows, "box_partitions", refuse_to_list)
    with pytest.raises(ShapeError, match=f"over WINDOW_LIMIT={WINDOW_LIMIT:,}"):
        enumerate_window(Context(d, r), 0)


def test_window_limit_is_on_the_generator_count(monkeypatch):
    monkeypatch.setattr(windows, "WINDOW_LIMIT", 6)
    assert len(enumerate_window(Context(4, 2), 0)) == 6
    with pytest.raises(ShapeError, match="C\\(5, 2\\) = 10 generators, over WINDOW_LIMIT=6"):
        enumerate_window(Context(5, 2), 1)


def test_window_limit_admits_every_cell_in_use():
    # the tests, golden files and benchmark stay below d = 15; every cell up
    # to d = 22 is admitted, the largest being C(22, 11) = 705,432
    assert max(comb(d, r) for d in range(23) for r in range(d + 1)) <= WINDOW_LIMIT
    assert comb(23, 11) > WINDOW_LIMIT
    for d, r in [(10, 5), (12, 6), (14, 7)]:
        assert len(enumerate_window(Context(d, r), 0)) == comb(d, r)
