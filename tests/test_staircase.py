import pytest

from schurwin.partitions import Context, Partition, ShapeError
from schurwin.staircase import (
    admissible_bases,
    base_from_top,
    resolution_sequence,
    staircase_diagrams,
    window_bases,
)
from schurwin.windows import in_window
from schurwin.partitions import canonicalize


def steps_as_tuples(data):
    return [(st.delta.parts, st.s) for st in data.steps]


def test_known_diagrams_d7_r3():
    data = staircase_diagrams(Context(7, 3), Partition((3, 1)))
    assert steps_as_tuples(data) == [
        ((3, 1, 1), 1),
        ((3, 2, 2), 3),
        ((3, 3, 2), 4),
        ((4, 4, 2), 6),
        ((5, 4, 2), 7),
    ]


def test_known_diagrams_rank_one():
    # empty base over the projective space: delta_k = (k), s_k = k
    for d in range(1, 9):
        data = staircase_diagrams(Context(d, 1), Partition(()))
        assert steps_as_tuples(data) == [((k,), k) for k in range(1, d + 1)]


def test_known_diagrams_d4_r2():
    data = staircase_diagrams(Context(4, 2), Partition((1,)))
    assert steps_as_tuples(data) == [((1, 1), 1), ((2, 2), 3), ((3, 2), 4)]


def test_resolution_sequences_d4_r2():
    ctx = Context(4, 2)
    seqs = {
        (): [((3, 1), 4), ((2, 1), 3), ((1, 1), 2), ((), 0)],
        (1,): [((3, 2), 4), ((2, 2), 3), ((1, 1), 1), ((1,), 0)],
        (2,): [((3, 3), 4), ((2, 2), 2), ((2, 1), 1), ((2,), 0)],
    }
    for base, expect in seqs.items():
        terms = resolution_sequence(ctx, Partition(base))
        assert [(t.delta.parts, t.ext_power) for t in terms] == expect


def test_resolution_sequence_euler_chain():
    # rank-one case: the classical chain of wedge powers down to the structure sheaf
    terms = resolution_sequence(Context(2, 1), Partition(()))
    assert [(t.delta.parts, t.ext_power, t.ext_dim) for t in terms] == [
        ((2,), 2, 1),
        ((1,), 1, 2),
        ((), 0, 1),
    ]


def test_admissibility_errors_name_the_bound():
    ctx = Context(4, 2)
    with pytest.raises(ShapeError, match="row bound"):
        staircase_diagrams(ctx, Partition((4,)))
    with pytest.raises(ShapeError, match="column bound"):
        staircase_diagrams(ctx, Partition((1, 1)))
    with pytest.raises(ShapeError):
        staircase_diagrams(Context(3, 0), Partition(()))


def test_base_from_top_known_values():
    assert base_from_top(Context(4, 2), Partition((3, 3))) == Partition((2,))
    assert base_from_top(Context(4, 2), Partition((3, 1))) == Partition(())
    assert base_from_top(Context(7, 3), Partition((5, 4, 2))) == Partition((3, 1))


def test_base_from_top_errors():
    ctx = Context(4, 2)
    with pytest.raises(ShapeError, match="not an out-of-window top"):
        base_from_top(ctx, Partition((2, 1)))
    with pytest.raises(ShapeError, match="no preimage"):
        base_from_top(ctx, Partition((3,)))


def test_rank_zero_has_no_tops_and_no_window_bases():
    ctx = Context(4, 0)
    assert window_bases(ctx) == []
    with pytest.raises(ShapeError, match="no staircase tops exist for r = 0"):
        base_from_top(ctx, Partition(()))


def test_round_trip_window_bases():
    for d in range(1, 8):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            for base in window_bases(ctx):
                data = staircase_diagrams(ctx, base)
                assert base_from_top(ctx, data.top) == base


def test_box_count_growth_matches_wedge_steps():
    # each step adds exactly s_k - s_{k-1} boxes (s_0 = 0), for every
    # admissible base, not only the window ones
    for d in range(1, 8):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            for base in admissible_bases(ctx):
                data = staircase_diagrams(ctx, base)
                prev_size, prev_s = base.size, 0
                for st in data.steps:
                    assert st.delta.size - prev_size == st.s - prev_s
                    prev_size, prev_s = st.delta.size, st.s


def test_final_step_shape():
    for d in range(1, 8):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            for base in admissible_bases(ctx):
                data = staircase_diagrams(ctx, base)
                ss = [st.s for st in data.steps]
                assert ss == sorted(set(ss))  # strictly increasing
                assert data.top.row(1) == ctx.staircase_length
                assert ss[0] >= 1
            for base in window_bases(ctx):
                data = staircase_diagrams(ctx, base)
                assert data.steps[-1].s == d


def test_two_consecutive_windows():
    # over a window base the whole resolution lives in W_0 and W_+1: every
    # delta_k lies in W_+1, every delta_k except the top also lies in W_0,
    # and the base itself lies in W_0
    for d in range(1, 8):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            for base in window_bases(ctx):
                data = staircase_diagrams(ctx, base)
                assert in_window(canonicalize(base.pad(r)), 0, ctx)
                for i, st in enumerate(data.steps):
                    label = canonicalize(st.delta.pad(r))
                    assert in_window(label, 1, ctx)
                    if i < len(data.steps) - 1:
                        assert in_window(label, 0, ctx)


def test_steps_count_is_staircase_length():
    for d in range(1, 8):
        for r in range(1, min(3, d) + 1):
            ctx = Context(d, r)
            for base in admissible_bases(ctx):
                assert len(staircase_diagrams(ctx, base).steps) == ctx.staircase_length


def test_full_length_row_base_accepted():
    # bases with a row of length d-r+1 satisfy the stated bounds and build,
    # but their top does not determine them, so they are not window bases
    ctx = Context(4, 2)
    data = staircase_diagrams(ctx, Partition((3,)))
    assert steps_as_tuples(data) == [((3, 1), 1), ((3, 2), 2), ((3, 3), 3)]
    assert Partition((3,)) in admissible_bases(ctx)
    assert Partition((3,)) not in window_bases(ctx)


def literal_staircase(ctx, base):
    """The `staircase_diagrams` docstring rule read literally: one
    `base.col(k)` and r calls of `base.row(i)` per step."""
    steps = []
    for k in range(1, ctx.staircase_length + 1):
        c = base.col(k)
        rows = []
        for i in range(1, ctx.r + 1):
            if i <= c:
                rows.append(base.row(i))
            elif i == c + 1:
                rows.append(k)
            else:
                rows.append(base.row(i - 1) + 1)
        steps.append((Partition(tuple(rows)), ctx.r + k - (c + 1)))
    return steps


def test_staircase_diagrams_match_the_literal_rule():
    bases = 0
    for d in range(1, 11):
        for r in range(1, d + 1):
            ctx = Context(d, r)
            for base in admissible_bases(ctx):
                data = staircase_diagrams(ctx, base)
                assert data.base == base
                got = [(st.delta, st.s) for st in data.steps]
                assert got == literal_staircase(ctx, base), (d, r, base)
                bases += 1
    # sum over d <= 10 of 2^d - 1: C(d, r - 1) bases for each r
    assert bases == 2036
