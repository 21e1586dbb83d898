import hashlib
import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, prod

import pytest

from schurwin import shifts
from schurwin.partitions import (
    Context, GeneratorLabel, Partition, ShapeError, _bareiss, canonicalize
)
from schurwin.shifts import (
    KMatrix,
    Term,
    TermComplex,
    _mat_mul,
    _unit_step,
    cotwist_shift_amount,
    general_shift,
    int_determinant,
    k_class,
    k_matrix,
    shift_down_generator,
    shift_up_generator,
)
from schurwin.verify import verify_relations
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


def test_shift_up_rejects_outsiders():
    ctx = Context(4, 2)
    g = canonicalize((3, 3))
    assert in_window(g, 1, ctx) and not in_window(g, 0, ctx)
    with pytest.raises(ShapeError, match="not in W_0"):
        shift_up_generator(ctx, g)


def test_unit_step_needs_adjacent_windows():
    ctx = Context(4, 2)
    for from_k, to_k in ((0, 2), (1, 1), (2, 0)):
        with pytest.raises(ShapeError, match="adjacent windows"):
            _unit_step(ctx, canonicalize((1, 0)), from_k, to_k)


def test_k_matrices_of_mismatched_windows_do_not_compose():
    ctx = Context(4, 2)
    down = k_matrix(ctx, 1, 0)
    for other in (down, k_matrix(Context(5, 2), 0, 1)):
        with pytest.raises(ShapeError, match="do not compose"):
            down @ other


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
    # the rows are the unit vectors, whatever the window size
    for d, r, k in [(1, 0, 3), (1, 1, 0), (4, 2, -1), (7, 3, 2)]:
        mat = k_matrix(Context(d, r), k, k)
        n = comb(d, r)
        assert mat.entries == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert mat.is_identity()
        rows = list(mat.entries)
        rows[-1] = rows[-1][:-1] + (2,)
        assert not mat._replace(entries=tuple(rows)).is_identity()


# sha256 of repr(entries) of the (8,4) K-matrices, the benchmark's largest cell, before
# the dense-matrix limit came in
KMATRIX_DIGESTS_D8_R4 = {
    (1, 0): "ac492cde6649da33", (0, 1): "e0e130de61bc0909", (2, -2): "68808c20fd3b973c",
    (-2, 2): "cce14acaddbbfbc9", (0, 0): "f2c53af4c77c3130",
}


def test_k_matrix_limit_is_on_the_generator_count(monkeypatch):
    # (8,4) has 70 generators: its K-matrices are unchanged under the real limit
    # and at MATRIX_LIMIT = 70, and at 69 each refuses before any unit-step image
    ctx = Context(8, 4)
    for limit in (shifts.MATRIX_LIMIT, 70):
        monkeypatch.setattr(shifts, "MATRIX_LIMIT", limit)
        for (k, l), digest in KMATRIX_DIGESTS_D8_R4.items():
            entries = k_matrix(ctx, k, l).entries
            assert hashlib.sha256(repr(entries).encode()).hexdigest()[:16] == digest, (k, l)
    monkeypatch.setattr(shifts, "MATRIX_LIMIT", 69)
    steps = []
    monkeypatch.setattr(shifts, "_unit_step", lambda *args, **kw: steps.append(args))
    for k, l in KMATRIX_DIGESTS_D8_R4:
        with pytest.raises(ShapeError, match="a K-matrix on 70 generators, over MATRIX_LIMIT=69"):
            k_matrix(ctx, k, l)
    with pytest.raises(ShapeError, match="over MATRIX_LIMIT=69"):
        verify_relations(ctx)
    assert steps == []


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


def test_unit_step_determinant_matches_dense_elimination():
    # every adjacent unit step, both directions, k in [-2, 2]
    steps = 0
    for d in range(1, 8):
        for r in range(0, d + 1):
            ctx = Context(d, r)
            for k in range(-2, 2):
                for a, b in ((k, k + 1), (k + 1, k)):
                    rows = k_matrix(ctx, a, b).entries
                    dense = _bareiss([list(row) for row in rows])
                    assert int_determinant(rows) == dense, (d, r, a, b)
                    steps += 1
    assert steps == 280


@pytest.mark.parametrize(
    "rows, det",
    [
        ((), 1),
        (((1,),), 1),
        (((-1,),), -1),
        # permuted unit rows only: a 3-cycle is even, a transposition odd
        (((0, 0, 1), (1, 0, 0), (0, 1, 0)), 1),
        (((0, 1, 0), (1, 0, 0), (0, 0, 1)), -1),
        # permuted unit rows around a dense block
        (((0, 0, 0, 1), (2, 3, 1, 5), (0, 1, 0, 0), (1, 4, 2, 6)), -3),
        # two rows equal to the same e_c: peeling one empties the other
        (((1, 0, 0), (1, 0, 0), (2, 3, 4)), 0),
        (((0, 1, 0), (5, 7, 1), (0, 1, 0)), 0),
        # a -1 unit row peels like a 1
        (((-1, 0), (0, 1)), -1),
        (((0, -1), (1, 0)), 1),
        (((3, 1, 0), (0, 0, -1), (0, 2, 0)), 6),
        # a row with two nonzeros peels once one column goes, else Bareiss takes it
        (((1, 1), (0, 1)), 1),
        (((1, 2), (3, 1)), -5),
        (((2, 1, 1), (0, 1, 0), (1, 0, 1)), 1),
    ],
)
def test_unit_step_determinant_hand_made(rows, det):
    assert leibniz_determinant(rows) == det
    assert int_determinant(rows) == det


def test_k_matrix_determinant_matches_dense_elimination():
    # composed and identity matrices too, not only single unit steps
    for d, r in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        ctx = Context(d, r)
        for k, l in [(0, 0), (1, 0), (2, -2), (-1, 2)]:
            m = k_matrix(ctx, k, l)
            assert m.determinant() == _bareiss([list(row) for row in m.entries]), (d, r, k, l)


def test_unit_step_determinant_with_planted_unit_rows():
    # random matrices with some standard or signed unit rows in random places
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n)):
            rows[i] = [0] * n
            rows[i][rng.randrange(n)] = rng.choice((1, 1, 1, -1, 2))
        assert int_determinant(rows) == leibniz_determinant(rows), rows


@pytest.mark.parametrize(
    "rows",
    [
        # a bidiagonal chain: one row peels per round, bottom up
        [[2, 3, 0, 0], [0, -1, 5, 0], [0, 0, 4, 1], [0, 0, 0, 3]],
        # a row emptied by an earlier peel: its two columns go
        [[1, 0, 0], [1, 2, 0], [0, 5, 0]],
        [[0, 0, 1], [4, 0, 0], [7, 0, 3]],
        # peeled entries other than +-1, in a permuted order
        [[0, 0, -2], [1, 4, 0], [5, 0, 7]],
        [[3, 0], [1, 2]],
        # a dense block left after peeling
        [[2, 3, 1, 5], [0, 0, 0, -3], [1, 4, 2, 6], [7, 1, 1, 1]],
        [[0, 2, 0, 0, 0], [1, 1, 2, 3, 1], [2, 0, 1, 1, 3], [0, 0, 0, 0, -1], [3, 1, 1, 2, 2]],
    ],
)
def test_int_determinant_peels_against_leibniz(rows):
    assert int_determinant(rows) == leibniz_determinant(rows)


def test_int_determinant_peels_a_long_chain():
    # a permuted bidiagonal chain of n = 60 peels one row per round: a loop,
    # not a recursion, and an empty block for Bareiss
    rng = random.Random(7)
    n = 60
    diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    chain = [[diag[i] if j == i else rng.randint(1, 4) if j == i + 1 else 0 for j in range(n)]
             for i in range(n)]
    rows_order, cols_order = rng.sample(range(n), n), rng.sample(range(n), n)
    rows = [[chain[i][j] for j in cols_order] for i in rows_order]
    assert int_determinant(rows) == _bareiss([list(row) for row in rows]) != 0
    assert abs(int_determinant(rows)) == abs(prod(diag))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [4, 5, 6]],
        [[1, 2], [3]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0], [0, 1], [0, 0]],
        [[1], [0, 1]],
    ],
)
def test_determinants_reject_ragged_or_non_square(rows):
    with pytest.raises(ShapeError, match="not a square matrix"):
        int_determinant(rows)


@pytest.mark.parametrize("x", [2.9, 2.0, Fraction(5, 2), Fraction(4, 2)])
def test_int_determinant_refuses_non_int_entries(x):
    # int() would truncate: int_determinant([[2.9, 0], [0, 1]]) was 2
    for rows in ([[x, 0], [0, 1]], [[1, 0], [0, x]], [[x]]):
        with pytest.raises(TypeError):
            int_determinant(rows)
    assert int_determinant([[True, 0], [0, 2]]) == 2
    assert type(int_determinant([[True]])) is int


def test_is_identity_is_false_off_square_entries():
    ctx = Context(3, 1)
    assert not KMatrix(ctx, 0, 0, ((1, 0, 0), (0, 1, 0))).is_identity()
    assert not KMatrix(ctx, 0, 0, ((1,), (0, 1))).is_identity()
    assert not KMatrix(ctx, 0, 0, ((1, 0), (0, 1), (0, 0))).is_identity()
    assert KMatrix(ctx, 0, 0, ((1, 0), (0, 1))).is_identity()
    assert KMatrix(ctx, 0, 0, ()).is_identity()


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        _mat_mul(((1, 2), (3, 4)), ((1, 0, 0),))


def naive_mat_mul(a, b):
    """Textbook triple loop: independent of the library's zero skipping."""
    n, mid, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for k in range(mid):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(row) for row in out)


def test_mat_mul_matches_naive_triple_loop():
    rng = random.Random(31)
    shapes = [(1, 5, 1), (5, 1, 4), (1, 1, 1), (4, 3, 1), (1, 4, 6), (6, 6, 6)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(44)]
    for n, mid, m in shapes:
        density = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])

        def entry():
            return rng.randint(-5, 5) if rng.random() < density else 0

        a = [[entry() for _ in range(mid)] for _ in range(n)]
        b = [[entry() for _ in range(m)] for _ in range(mid)]
        if rng.random() < 0.5:  # an all-zero row of a, an all-zero column of b
            a[rng.randrange(n)] = [0] * mid
            zero_col = rng.randrange(m)
            for row in b:
                row[zero_col] = 0
        a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
        got = _mat_mul(a, b)
        assert got == naive_mat_mul(a, b), (a, b)
        assert all(type(row) is tuple for row in got)


def substituted_shift(ctx, from_k, to_k, g, keep_det):
    """Termwise unit-step substitution with a fresh `_unit_step` per term,
    each untwisted image twisted back here by det^min(k, k +- 1)."""
    terms = [Term(0, g)]
    step = -1 if to_k < from_k else 1
    for current in range(from_k, to_k, step):
        twist = min(current, current + step)
        new_terms = []
        for t in terms:
            for u in _unit_step(ctx, t.label, current, current + step, keep_det).terms:
                label = GeneratorLabel(u.label.delta, u.label.det_power + twist)
                copies = t.copies * u.copies
                if t.ext_power == 0:
                    ext = u.ext_power
                elif u.ext_power == 0:
                    ext = t.ext_power
                else:
                    ext = u.ext_power
                    copies *= comb(ctx.d, t.ext_power)
                new_terms.append(Term(t.degree + u.degree, label, ext, copies))
        terms = new_terms
    terms.sort(key=lambda t: t.degree)
    return TermComplex(tuple(terms), honest=abs(from_k - to_k) <= 1)


@pytest.mark.parametrize("d,r", [(5, 2), (6, 3), (8, 4), (4, 0), (5, 0), (4, 4), (5, 5)])
def test_general_shift_matches_unmemoized_substitution(d, r):
    ctx = Context(d, r)
    for from_k, to_k in [(2, -2), (-2, 2), (3, -1), (-1, 3), (1, 1)]:
        gens = enumerate_window(ctx, from_k)
        if r == 0:  # every label lies in every window; the CLI's is ((), 0)
            gens += [GeneratorLabel(Partition(()), m) for m in range(-3, 4)]
        for g in gens:
            for keep_det in (False, True):
                got = general_shift(ctx, from_k, to_k, g, keep_det=keep_det)
                ref = substituted_shift(ctx, from_k, to_k, g, keep_det)
                assert got.terms == ref.terms, (g, from_k, to_k, keep_det)
                assert got.honest == ref.honest


def node_shift(ctx, from_k, to_k, g, keep_det):
    """`general_shift` as it was before its nodes were raw tuples: each level
    holds terms whose labels are untwisted by the next step's twist; a label in
    both windows of the step is its own image, any other takes the `_unit_step`
    `TermComplex` from one memo per call; every label is twisted into W_to last."""
    step = -1 if to_k < from_k else 1
    src, dst = (1, 0) if step < 0 else (0, 1)
    memo, terms = {}, [Term(0, GeneratorLabel(g.delta, g.det_power - from_k + src))]
    for _ in range(from_k, to_k, step):
        new_terms = []
        for t in terms:
            if ctx.r and in_window(t.label, dst, ctx):
                image = (Term(0, t.label),)
            else:
                image = _unit_step(ctx, t.label, src, dst, keep_det, memo).terms
            for u in image:
                copies = t.copies * u.copies
                if u.ext_power == 0:
                    ext = t.ext_power
                else:
                    ext = u.ext_power
                    if t.ext_power:
                        copies *= comb(ctx.d, t.ext_power)
                label = GeneratorLabel(u.label.delta, u.label.det_power - step)
                new_terms.append(Term(t.degree + u.degree, label, ext, copies))
        terms = new_terms
    terms.sort(key=lambda t: t.degree)
    return TermComplex(tuple(
        t._replace(label=GeneratorLabel(t.label.delta, t.label.det_power + to_k - src))
        for t in terms
    ), honest=abs(from_k - to_k) <= 1)


REFERENCE_PAIRS = [(2, -2), (-2, 2), (3, -1), (-1, 3), (1, 1), (0, 1), (1, 0), (2, 1)]


@pytest.mark.parametrize("d", range(1, 8))
def test_general_shift_equals_the_node_reference(d):
    for r in range(d + 1):
        ctx = Context(d, r)
        for from_k, to_k in REFERENCE_PAIRS:
            gens = enumerate_window(ctx, from_k)
            if r == 0:
                gens += [GeneratorLabel(Partition(()), m) for m in range(-3, 4)]
            for g, keep_det in product(gens, (False, True)):
                got = general_shift(ctx, from_k, to_k, g, keep_det=keep_det)
                ref = node_shift(ctx, from_k, to_k, g, keep_det)
                assert got == ref, (d, r, g, from_k, to_k, keep_det)


@pytest.mark.parametrize("from_k, to_k", [(2, -2), (-2, 2)])
def test_general_shift_bench_sweeps_equal_the_node_reference(from_k, to_k):
    ctx = Context(8, 4)
    for g in enumerate_window(ctx, from_k):
        assert general_shift(ctx, from_k, to_k, g) == node_shift(ctx, from_k, to_k, g, False), g


def count_generator_shifts(monkeypatch):
    """Count the untwisted unit-step images built, by direction."""
    calls = {"down": 0, "up": 0}
    for direction in calls:
        name = f"shift_{direction}_generator"

        def counted(*args, _honest=getattr(shifts, name), _direction=direction, **kwargs):
            calls[_direction] += 1
            return _honest(*args, **kwargs)

        monkeypatch.setattr(shifts, name, counted)
    return calls


@pytest.mark.parametrize(
    "d, r, from_k, to_k, down, up", [(6, 3, 2, -2, 20, 0), (8, 4, -2, 2, 0, 70)]
)
def test_k_matrix_builds_each_untwisted_image_once(monkeypatch, d, r, from_k, to_k, down, up):
    # one image per generator of W_1 (down) or W_0 (up), shared by every level
    calls = count_generator_shifts(monkeypatch)
    ctx, memo = Context(d, r), {}
    k_matrix(ctx, from_k, to_k, memo)
    assert calls == {"down": down, "up": up}
    # a caller's memo carries over: the next K-matrix builds no image
    inner = (from_k + to_k) // 2
    shared = k_matrix(ctx, inner, to_k, memo)
    assert calls == {"down": down, "up": up}
    assert shared == k_matrix(ctx, inner, to_k)


def count_images(monkeypatch):
    """Count the untwisted unit-step images read from staircase rows, by
    direction, and record each imaged label."""
    calls, imaged = {"down": 0, "up": 0}, []

    def counted(ctx, parts, m, down, keep_det, _honest=shifts._image_rows):
        calls["down" if down else "up"] += 1
        imaged.append(GeneratorLabel(Partition(parts), m))
        return _honest(ctx, parts, m, down, keep_det)

    monkeypatch.setattr(shifts, "_image_rows", counted)
    return calls, imaged


def test_general_shift_builds_each_untwisted_image_once(monkeypatch):
    calls, _ = count_images(monkeypatch)
    ctx = Context(8, 4)
    general_shift(ctx, 2, -2, enumerate_window(ctx, 2)[-1])
    assert calls == {"down": 35, "up": 0}


def test_general_shift_sweeps_build_no_overlap_image(monkeypatch):
    # one image per distinct label per call, and none for a label in both
    # windows of its step: it is its own image. Every label a step reaches is
    # in W_src, so only its membership in W_dst is tested, once per label, by
    # the window rule on its raw weight; `in_window` checks only the caller's
    # generator, once per call
    calls, imaged = count_images(monkeypatch)
    tests = {"in_window": 0, "_in_box": 0}
    for name in tests:

        def counted(*args, _honest=getattr(shifts, name), _name=name):
            tests[_name] += 1
            return _honest(*args)

        monkeypatch.setattr(shifts, name, counted)
    ctx, shifted = Context(8, 4), 0
    for from_k, to_k in [(2, -2), (-2, 2)]:
        for g in enumerate_window(ctx, from_k):
            general_shift(ctx, from_k, to_k, g)
            shifted += 1
    assert calls == {"down": 758, "up": 758}
    assert tests == {"in_window": shifted, "_in_box": 2700}
    assert [g for g in imaged if in_window(g, 0, ctx) and in_window(g, 1, ctx)] == []


def test_general_shift_refuses_a_skeleton_level_past_the_limit(monkeypatch):
    # like terms are never collapsed, so a level grows geometrically with the
    # steps; the largest skeleton the suites build has 625 terms
    ctx = Context(8, 4)
    assert max(len(general_shift(ctx, 2, -2, g).terms) for g in enumerate_window(ctx, 2)) == 625
    assert shifts.SKELETON_LIMIT >= 160 * 625
    g = enumerate_window(ctx, 2)[-1]
    monkeypatch.setattr(shifts, "SKELETON_LIMIT", 624)
    with pytest.raises(ShapeError, match="over SKELETON_LIMIT=624 terms"):
        general_shift(ctx, 2, -2, g)
    monkeypatch.setattr(shifts, "SKELETON_LIMIT", 625)
    assert len(general_shift(ctx, 2, -2, g).terms) == 625


@pytest.mark.parametrize("from_k, to_k", [(2, -2), (-2, 2)])
def test_general_shift_terms_share_one_label_per_distinct_label(from_k, to_k):
    # equal labels in one skeleton are one object: a sweep keeps far fewer
    ctx, repeated = Context(8, 4), 0
    for g in enumerate_window(ctx, from_k):
        terms = general_shift(ctx, from_k, to_k, g).terms
        labels = {t.label for t in terms}
        assert len({id(t.label) for t in terms}) == len(labels), g
        repeated += len(terms) - len(labels)
    assert repeated > 1000


@pytest.mark.parametrize("d, r, images", [(6, 3, 20), (7, 3, 35)])
def test_relations_build_each_untwisted_image_once(monkeypatch, d, r, images):
    # all eight unit K-matrices share one memo: one image per generator of
    # W_1 (down) and of W_0 (up), not one per level
    calls = count_generator_shifts(monkeypatch)
    assert verify_relations(Context(d, r)).passed
    assert calls == {"down": images, "up": images}


@pytest.mark.parametrize("d, r", [(5, 2), (6, 3), (7, 3)])
def test_unit_step_with_shared_memo_matches_memo_free(d, r):
    ctx, memo = Context(d, r), {}
    for k in range(-3, 4):
        for g in enumerate_window(ctx, k):
            for to_k, keep_det in product((k - 1, k + 1), (False, True)):
                got = _unit_step(ctx, g, k, to_k, keep_det, memo)
                assert got == _unit_step(ctx, g, k, to_k, keep_det), (g, k, to_k, keep_det)
    # one image per generator of W_1 (down) and of W_0 (up), per keep_det
    assert len(memo) == 4 * comb(d, r)


def test_general_shift_identity_and_single_step():
    # one step's terms equal its wrapper's: checked in the rank grid below
    ctx = Context(4, 2)
    g = canonicalize((3, 2))
    assert general_shift(ctx, 1, 1, g).is_single_generator()
    assert general_shift(ctx, 1, 0, g).honest


@pytest.mark.parametrize("d", range(1, 7))
def test_one_step_wrappers_are_general_shift_at_every_rank(d):
    # r = 0 included: an image marked by its source window, ((), 1) down,
    # would lie outside the W_0 basis and k_class would refuse it
    for r in range(d + 1):
        ctx = Context(d, r)
        for src, dst, keep_det in [(1, 0, False), (0, 1, False), (0, 1, True)]:
            target = enumerate_window(ctx, dst)
            rows = k_matrix(ctx, src, dst).entries
            for g, row in zip(enumerate_window(ctx, src), rows, strict=True):
                if dst < src:
                    got = shift_down_generator(ctx, g)
                else:
                    got = shift_up_generator(ctx, g, keep_det)
                assert got == general_shift(ctx, src, dst, g, keep_det), (r, g, keep_det)
                assert got.honest
                assert k_class(ctx, got, target) == row, (r, g, keep_det)


@pytest.mark.parametrize("det_power", [1.0, Fraction(1)])
@pytest.mark.parametrize("parts", [(1,), (2,)])  # at (4, 2): in W_1 and W_0; in W_1 only
def test_shifts_refuse_a_non_integer_det_power(parts, det_power):
    ctx, g = Context(4, 2), GeneratorLabel(Partition(parts), det_power)
    for shift in (
        lambda: general_shift(ctx, 1, 0, g),
        lambda: shift_down_generator(ctx, g),
        lambda: shift_up_generator(ctx, g),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            shift()
    assert shift_down_generator(ctx, g._replace(det_power=1)).honest


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
