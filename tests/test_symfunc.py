import random
from fractions import Fraction
from itertools import (
    accumulate, combinations, combinations_with_replacement, permutations, product
)
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import schurwin.bott as bott
import schurwin.symfunc as symfunc
from schurwin.partitions import (
    Context, Partition, ShapeError, _strip, box_partitions, dual_weight
)
from schurwin.symfunc import (
    SchurExpansion,
    dimension_gl,
    elementary_as_schur,
    elementary_at,
    evaluate,
    lr_multiply,
    schur_at,
    tensor_gl,
)

# ---------------------------------------------------------------------------
# independent oracle: monomial expansion of a Schur polynomial by enumerating
# semistandard tableaux directly (never touches the LR or Jacobi-Trudi code)


def ssyt_monomials(shape, n):
    """{exponent vector: multiplicity} of s_shape(x_1..x_n) via tableaux."""
    shape = tuple(shape)
    result = {}

    def fill(row_idx, rows):
        if row_idx == len(shape):
            expo = [0] * n
            for row in rows:
                for v in row:
                    expo[v - 1] += 1
            key = tuple(expo)
            result[key] = result.get(key, 0) + 1
            return
        width = shape[row_idx]
        above = rows[-1] if rows else None

        def fill_row(col, row):
            if col == width:
                fill(row_idx + 1, rows + [row])
                return
            lo = row[col - 1] if col else 1
            if above is not None and col < len(above):
                lo = max(lo, above[col] + 1)
            for v in range(lo, n + 1):
                fill_row(col + 1, row + [v])

        fill_row(0, [])

    fill(0, [])
    return result


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {k: c for k, c in out.items() if c}


def expansion_monomials(e, n):
    total = {}
    for key, coeff in e.terms.items():
        mono = ssyt_monomials(key, n)
        total = poly_add(total, {k: coeff * c for k, c in mono.items()})
    return total


def random_partition(rng, max_boxes):
    n = rng.randint(0, max_boxes)
    parts = []
    while n > 0:
        p = rng.randint(1, n)
        if not parts or p <= parts[-1]:
            parts.append(p)
            n -= p
    return Partition(tuple(parts))


# ---------------------------------------------------------------------------


def test_lr_squares_with_monomial_oracle():
    # frozen expansions, each re-derived from the tableau oracle in 3 variables
    assert lr_multiply((1,), (1,), rank=3).terms == {(2,): 1, (1, 1): 1}
    assert lr_multiply((2, 1), (1,), rank=3).terms == {
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
    }
    for a, b in [((1,), (1,)), ((2, 1), (1,)), ((2, 1), (2, 1)), ((3, 1), (2, 2))]:
        prod = lr_multiply(a, b, rank=3)
        direct = poly_mul(ssyt_monomials(a, 3), ssyt_monomials(b, 3))
        assert expansion_monomials(prod, 3) == direct


def test_lr_unit():
    for lam in [(), (1,), (3, 2), (4, 4, 1)]:
        assert lr_multiply(lam, ()).terms == ({tuple(x for x in lam if x): 1} if any(lam) else {(): 1})


def test_lr_known_square():
    # classical expansion of s_(2,1)^2
    assert lr_multiply((2, 1), (2, 1)).terms == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }


def test_lr_commutative_and_associative_sampled():
    rng = random.Random(42)
    triples = [
        tuple(random_partition(rng, 8) for _ in range(3)) for _ in range(100)
    ]
    for a, b, c in triples:
        ab = lr_multiply(a, b)
        assert ab == lr_multiply(b, a)
        left = SchurExpansion(rank=None)
        for k, coeff in ab.terms.items():
            left = left + coeff * lr_multiply(Partition(k), c)
        bc = lr_multiply(b, c)
        right = SchurExpansion(rank=None)
        for k, coeff in bc.terms.items():
            right = right + coeff * lr_multiply(a, Partition(k))
        assert left == right


def test_lr_rank_truncation():
    full = lr_multiply((2, 1), (2, 1))
    truncated = lr_multiply((2, 1), (2, 1), rank=2)
    assert truncated.terms == {k: c for k, c in full.terms.items() if len(k) <= 2}


@st.composite
def small_partitions(draw):
    parts = draw(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    return Partition(tuple(sorted(parts, reverse=True)))


@settings(max_examples=60, deadline=None)
@given(small_partitions(), small_partitions())
def test_lr_commutes_and_respects_size(a, b):
    ab = lr_multiply(a, b)
    assert ab == lr_multiply(b, a)
    assert all(sum(k) == a.size + b.size for k in ab.terms)
    assert all(c > 0 for c in ab.terms.values())


@settings(max_examples=40, deadline=None)
@given(small_partitions(), st.integers(1, 4))
def test_schur_value_at_ones_is_dimension(lam, n):
    # principal specialization: the value at (1,...,1) counts tableaux
    if len(lam) > n:
        assert schur_at(lam.parts, (1,) * n) == 0
    else:
        assert schur_at(lam.parts, (1,) * n) == dimension_gl(lam.pad(n), n)


def test_evaluate_known_values():
    assert evaluate(SchurExpansion({(1, 1): 1}, rank=2), (2, 3)) == 6
    assert schur_at((), (Fraction(7, 3),)) == 1
    assert schur_at((2,), (1, 1)) == 3  # h_2 at a repeated point, 3 monomials


def test_evaluate_refuses_a_point_of_the_wrong_length():
    e = SchurExpansion({(1, 1): 1}, rank=2)
    for point in ((2,), (2, 3, 5)):
        with pytest.raises(ShapeError, match="expansion rank 2"):
            evaluate(e, point)


def test_schur_expansion_rank_mismatch_and_repr():
    a = SchurExpansion({(2, 1): 3, (1,): -1}, rank=2)
    for b in (SchurExpansion({(1,): 1}, rank=3), SchurExpansion({(1,): 1})):
        with pytest.raises(ShapeError, match="rank mismatch in sum"):
            a + b
        with pytest.raises(ShapeError, match="rank mismatch in product"):
            a.multiply(b)
    assert repr(a) == "SchurExpansion({(1,): -1, (2, 1): 3}, rank=2)"


def all_partitions_up_to(max_boxes):
    out = [()]

    def grow(prefix, remaining, cap):
        for p in range(1, min(cap, remaining) + 1):
            out.append(prefix + (p,))
            grow(prefix + (p,), remaining - p, p)

    grow((), max_boxes, max_boxes)
    return [Partition(p) for p in out]


def test_evaluate_multiplicative_exhaustive_6_boxes():
    # every pair of partitions with at most 6 boxes, in 3 variables,
    # at 5 seeded rational points
    rng = random.Random(7)
    shapes = all_partitions_up_to(6)
    points = [
        tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        for _ in range(5)
    ]
    for a in shapes:
        for b in shapes:
            prod = lr_multiply(a, b, rank=3)
            for x in points:
                lhs = evaluate(prod, x)
                rhs = schur_at(a.parts, x) * schur_at(b.parts, x)
                assert lhs == rhs, (a, b, x)


def test_lr_dimension_identity():
    shapes = all_partitions_up_to(6)
    for n in (3, 4):
        for a in shapes:
            for b in shapes:
                if len(a) > n or len(b) > n:
                    continue
                prod = lr_multiply(a, b, rank=n)
                total = sum(
                    c * dimension_gl(k + (0,) * (n - len(k)), n)
                    for k, c in prod.terms.items()
                )
                assert total == dimension_gl(a.pad(n), n) * dimension_gl(b.pad(n), n)


def test_tensor_gl_known_values():
    e = tensor_gl(2, (1, 0), (0, -1))
    assert e.terms == {(1, -1): 1, (): 1}
    w = (3, 1, -2)
    assert tensor_gl(3, w, (0, 0, 0)).terms == {(3, 1, -2): 1}
    assert tensor_gl(1, (4,), (-7,)).terms == {(-3,): 1}


def _det_shifted(e, r, c):
    """The expansion `e` tensored with det^c, i.e. every key shifted by c."""
    return e.multiply(SchurExpansion({(c,) * r: 1}, rank=r))


def test_tensor_gl_shift_independent():
    # translating one weight by c*(1,...,1) translates every term by c
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randint(1, 3)
        u = tuple(sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True))
        v = tuple(sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True))
        c = rng.choice((-3, -1, 1, 2))
        shifted = _det_shifted(tensor_gl(r, u, v), r, c)
        assert tensor_gl(r, tuple(x + c for x in u), v) == shifted
        assert tensor_gl(r, u, tuple(x + c for x in v)) == shifted


@pytest.mark.parametrize("x", [1.5, 2.0, Fraction(3, 2), Fraction(4, 2)])
def test_tensor_gl_refuses_non_int_entries(x):
    # int() would truncate: tensor_gl(2, (1.5, 0), (0, 0)) was {(1,): 1}
    for u, v in (((x, 0), (0, 0)), ((0, 0), (x, 0)), ((x, 0), (3, 0)), ((5, 0), (x, -1))):
        with pytest.raises(TypeError):
            tensor_gl(2, u, v)


def test_tensor_gl_rank_zero():
    assert tensor_gl(0, (), ()).terms == {(): 1}


def test_dimension_gl_known_values():
    assert dimension_gl((1, 0, 0, 0), 4) == 4
    assert dimension_gl((1, 1, 0, 0), 4) == 6  # dim of the 2nd exterior power of C^4
    assert dimension_gl((5,), 1) == 1
    assert dimension_gl((), 0) == 1
    assert dimension_gl((1, -1), 2) == 3


def test_dimension_matches_principal_specialization():
    # dim = value of the Schur polynomial at (1,...,1)
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        lam = random_partition(rng, 7)
        if len(lam) > n:
            continue
        assert dimension_gl(lam.pad(n), n) == schur_at(lam.parts, (1,) * n)


def test_elementary_as_schur():
    assert elementary_as_schur(2, rank=3).terms == {(1, 1): 1}
    assert elementary_as_schur(0, rank=2).terms == {(): 1}
    assert elementary_as_schur(3, rank=2).is_zero()
    with pytest.raises(ShapeError):
        elementary_as_schur(-1)


def test_elementary_at_matches_schur_column():
    xs = (Fraction(2), Fraction(3), Fraction(5))
    for s in range(4):
        assert elementary_at(xs, s) == schur_at((1,) * s, xs)
    assert elementary_at(xs, 4) == 0


def monomial_value(monomials, point):
    total = Fraction(0)
    for expo, c in monomials.items():
        term = Fraction(c)
        for x, e in zip(point, expo):
            term *= Fraction(x) ** e
        total += term
    return total


def bialternant_value(w, point):
    """Weyl's ratio det(x_i^(w_j + n - j)) / det(x_i^(n - j)), by permutations.

    Only valid at distinct nonzero coordinates; used here as an oracle for
    negative weights, never by the library.
    """
    n = len(point)

    def det(exponents):
        total = Fraction(0)
        for perm in permutations(range(n)):
            sign = (-1) ** sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            term = Fraction(sign)
            for i, j in enumerate(perm):
                term *= Fraction(point[i]) ** exponents[j]
            total += term
        return total

    return det([w[j] + n - 1 - j for j in range(n)]) / det(
        [n - 1 - j for j in range(n)]
    )


ORACLE_POINTS = [
    (Fraction(2, 3), Fraction(5, 7), Fraction(-9, 4)),  # mixed denominators
    (Fraction(3, 5), Fraction(3, 5), Fraction(1, 6)),  # repeated coordinate
    (Fraction(7, 2), Fraction(7, 2), Fraction(7, 2)),  # all coordinates equal
    (Fraction(0), Fraction(4, 9), Fraction(-1, 8)),  # zero coordinate
]


def test_schur_at_matches_tableau_sum():
    for n in (1, 2, 3):
        for lam in all_partitions_up_to(5):
            mono = ssyt_monomials(lam.parts, n)
            for point in ORACLE_POINTS:
                x = point[:n]
                assert schur_at(lam.parts, x) == monomial_value(mono, x), (lam, x)


def test_schur_at_negative_weight_matches_bialternant():
    x = (Fraction(2, 3), Fraction(5, 7), Fraction(-9, 4))
    for w in [(0, 0, -1), (1, 0, -2), (2, -1, -1), (-1, -1, -3), (3, 1, -1)]:
        assert schur_at(w, x) == bialternant_value(w, x), w
    assert schur_at((1, -1), x[:2]) == bialternant_value((1, -1), x[:2])


def test_schur_at_short_negative_weight_matches_bialternant():
    # zero padding makes these non-dominant; schur_at straightens them
    x = (Fraction(2, 3), Fraction(5, 7), Fraction(-9, 4))
    checked = 0
    for n in (2, 3):
        for length in range(1, n):
            for w in product(range(-3, 4), repeat=length):
                if list(w) != sorted(w, reverse=True) or w[-1] >= 0:
                    continue
                padded = w + (0,) * (n - length)
                assert schur_at(w, x[:n]) == bialternant_value(padded, x[:n]), w
                checked += 1
    assert checked > 20
    assert schur_at((-2,), (Fraction(2), Fraction(3))) == Fraction(-1, 6)


def test_elementary_at_matches_subset_products():
    for point in ORACLE_POINTS:
        assert elementary_at(point, -1) == 0
        for s in range(len(point) + 2):
            expect = sum(map(prod, combinations(point, s)), Fraction(0))
            assert elementary_at(point, s) == expect, (point, s)


def test_schur_at_negative_weight_scaling():
    xs = (Fraction(2), Fraction(3))
    assert schur_at((1, -1), xs) == schur_at((2, 0), xs) / (xs[0] * xs[1])
    with pytest.raises(ZeroDivisionError):
        schur_at((0, -1), (Fraction(0), Fraction(1)))
    # padding (-1,) to (-1, 0) leaves the last Jacobi-Trudi row empty
    assert schur_at((-1,), xs) == 0
    assert schur_at((2, -1), xs + (Fraction(0),)) == 0


def test_schur_at_more_rows_than_variables():
    assert schur_at((1, 1, 1), (1, 2)) == 0


def _random_weight(rng, n):
    """A weakly decreasing weight of length 0..n+1 with entries in -3..4; a
    short one ending in a negative entry is non-dominant once zero-padded."""
    return tuple(sorted((rng.randint(-3, 4) for _ in range(rng.randint(0, n + 1))), reverse=True))


def test_schur_at_integer_point_matches_fraction_point():
    # at a point of ints the Jacobi-Trudi determinant is taken directly; it
    # must agree with the same point as Fractions and, by homogeneity, with
    # b / q scaled by q^|w|, and for small partitions with the tableau sum
    rng = random.Random(15)
    seen = {"int": 0, "negative": 0, "straightened": 0, "zero division": 0, "oracle": 0}
    for _ in range(1500):
        n = rng.randint(0, 6)
        b = tuple(rng.randint(-4, 4) for _ in range(n))  # repeats and zeros
        w = _random_weight(rng, n)
        q = rng.randint(1, 9)
        as_fractions = tuple(Fraction(x) for x in b)
        over_q = tuple(Fraction(x, q) for x in b)
        try:
            value = schur_at(w, b)
        except ZeroDivisionError:
            seen["zero division"] += 1
            for point in (as_fractions, over_q):
                with pytest.raises(ZeroDivisionError):
                    schur_at(w, point)
            continue
        assert schur_at(w, as_fractions) == value, (w, b)
        assert schur_at(w, over_q) * Fraction(q) ** sum(w) == value, (w, b, q)
        if not w or w[-1] >= 0:
            assert type(value) is int
            seen["int"] += 1
            if n <= 4 and sum(w) <= 6:
                assert value == monomial_value(ssyt_monomials(w, n), b), (w, b)
                seen["oracle"] += 1
        else:
            seen["negative"] += 1
            seen["straightened"] += len(w) < n
    assert min(seen.values()) >= 20, seen


def test_schur_at_builds_one_h_table_per_value(monkeypatch):
    # every branch (Bott straightening and the det-power shift too) ends in at
    # most one Jacobi-Trudi determinant, whose table schur_at builds itself at
    # the point of ints, exactly as long as that partition needs
    built, h_table = [], symfunc._h_table
    monkeypatch.setattr(symfunc, "_h_table", lambda b, m: built.append((b, m)) or h_table(b, m))
    rng = random.Random(18)
    seen = {"partition": 0, "negative": 0, "straightened": 0, "zero division": 0}
    for _ in range(1200):
        n = rng.randint(0, 6)
        b = tuple(rng.randint(-4, 4) for _ in range(n))  # repeats and zeros
        w = _random_weight(rng, n)
        built.clear()
        try:
            schur_at(w, b)
        except ZeroDivisionError:
            seen["zero division"] += 1
            continue
        assert len(built) <= 1 and all(xs == b for xs, _ in built), (w, b, built)
        lam = tuple(x for x in w if x)  # w without its trailing zeros
        if lam and lam[-1] > 0 and len(lam) <= n:
            seen["partition"] += 1
            assert built == [(b, lam[0] + len(lam) - 1)], (w, b)
        elif lam and lam[-1] < 0:
            seen["negative"] += 1
            seen["straightened"] += len(w) < n
    assert min(seen.values()) >= 20, seen


def test_h_table_is_the_complete_homogeneous_values():
    # checked against the tableau sum of the one-row shape (m)
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(0, 4)
        b = tuple(rng.randint(-4, 4) for _ in range(n))
        h = symfunc._h_table(b, 5)
        assert h == tuple(monomial_value(ssyt_monomials((m,), n), b) for m in range(6)), b
    assert symfunc._h_table((2, 3), -1) == (1,)


@pytest.mark.parametrize(
    "call",
    [
        lambda point: schur_at((2, 1), point),
        lambda point: elementary_at(point, 1),
        lambda point: evaluate(SchurExpansion({(2, 1): 1}, rank=2), point),
    ],
    ids=["schur_at", "elementary_at", "evaluate"],
)
def test_float_coordinate_refused(call):
    # a float's binary value is not the decimal it prints as: 0.1 would
    # evaluate as 3602879701896397/36028797018963968
    for point in [(Fraction(1, 3), 0.1), (2, 0.5), (1.0, 2)]:
        with pytest.raises(TypeError, match="float"):
            call(point)
    exact = call((Fraction(1, 3), Fraction(1, 10)))
    assert call(("1/3", "1/10")) == call((Fraction(1, 3), "0.1")) == exact
    assert call((2, Fraction(1, 2))) == call((Fraction(2), "1/2"))
    assert type(exact) is Fraction


def test_expansion_arithmetic_and_invariants():
    e = SchurExpansion({(2, 1): 2, (1, 1, 1): -1}, rank=3)
    z = e - e
    assert z.is_zero()
    assert (e + z) == e
    assert (2 * e).terms == {(2, 1): 4, (1, 1, 1): -2}
    # keys taller than the rank are dropped on insertion
    assert SchurExpansion({(1, 1, 1): 5}, rank=2).is_zero()
    # no zero coefficients stored
    assert SchurExpansion({(2,): 0}, rank=2).terms == {}
    with pytest.raises(ShapeError):
        SchurExpansion({(1, -1): 1}, rank=None)


def test_expansion_multiply_matches_lr():
    a = SchurExpansion({(2,): 1, (1, 1): 1}, rank=None)
    b = SchurExpansion({(1,): 1}, rank=None)
    prod = a.multiply(b)
    expect = lr_multiply((2,), (1,)) + lr_multiply((1, 1), (1,))
    assert prod == expect


def test_expansion_json_obj_is_sorted():
    e = SchurExpansion({(2,): 1, (1, 1): 3}, rank=2)
    assert e.to_json_obj() == [
        {"weight": [1, 1], "coeff": 3},
        {"weight": [2], "coeff": 1},
    ]


def test_expansion_rejects_short_key_with_negative_last_entry():
    # zero padding would make (1, -1) the non-dominant (1, -1, 0)
    with pytest.raises(ShapeError):
        SchurExpansion({(1, -1): 1}, rank=3)
    assert SchurExpansion({(1, -1): 1}, rank=2).terms == {(1, -1): 1}
    assert SchurExpansion({(1, 0, -1): 1}, rank=3).terms == {(1, 0, -1): 1}


def test_lr_multiply_by_a_column_is_the_pieri_rule():
    # the strip DP, with no column branch of its own, against `_add_column`:
    # either argument order, every rank, with and without a shared steps table
    shared, seen = {}, set()
    for a in box_partitions(4, 4):
        for k in range(6):
            col = (1,) * k
            for rank in (None, 0, 1, 2, 3, 4, 5):
                fits = rank is None or len(a) <= rank
                expected = symfunc._add_column(a.parts, k, rank) if fits else {}
                for x, y in ((a, col), (col, a)):
                    for steps in (None, shared):
                        assert lr_multiply(x, y, rank, steps).terms == expected, (x, y, rank)
                seen.add((rank is None, fits, bool(expected)))
    assert seen == {(True, True, True), (False, True, True), (False, True, False),
                    (False, False, False)}
    assert shared


@pytest.mark.parametrize("n", [4, 5])
def test_column_products_match_evaluation(n):
    # s_a * e_k at rank n, by the Pieri path, against values at rational points
    rng = random.Random(40 + n)
    points = [
        tuple(Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n))
        for _ in range(2)
    ]
    shapes = [(), (1,), (2,), (2, 1), (3, 1, 1), (2, 2, 1, 1), (4, 3, 1), (3, 3, 2, 2)]
    for a in shapes + [(1,) * (n + 1)]:
        for k in range(n + 3):
            col = (1,) * k
            for x, y in ((a, col), (col, a)):  # column as the larger and smaller factor
                prod_ = lr_multiply(x, y, rank=n)
                if k > n or len(a) > n:
                    assert prod_.is_zero()
                for pt in points:
                    assert evaluate(prod_, pt) == schur_at(a, pt) * elementary_at(pt, k)


def test_tensor_gl_memo_and_translation_independent():
    # tensor_gl is translation independent, and bott's class memo keys a pair by
    # its translation class: the swapped pair and shifts of either weight hit
    # one entry, whose terms less the offsets are tensor_gl's
    rng = random.Random(17)
    memo = {}
    for _ in range(300):
        r = rng.randint(1, 4)
        u = tuple(sorted((rng.randint(-3, 5) for _ in range(r)), reverse=True))
        v = tuple(sorted((rng.randint(-3, 5) for _ in range(r)), reverse=True))
        if rng.random() < 0.3:  # last entries positive: the old translation was 0
            u = tuple(x + 6 for x in u)
        plain = tensor_gl(r, u, v)
        rows = bott._lr_class(r, *_class_of(u, v), memo)
        terms = {tuple(i - x for i, x in enumerate(a)): c for a, c in rows}
        assert _untranslated(terms, r, -u[-1] - v[-1]) == plain.terms
        size = len(memo)
        c = rng.randint(1, 3)
        shifted = _det_shifted(plain, r, c)
        assert tensor_gl(r, v, u) == plain
        assert tensor_gl(r, tuple(x - 2 for x in u), v) == plain.multiply(
            SchurExpansion({(-2,) * r: 1}, rank=r)
        )
        assert tensor_gl(r, u, tuple(x + c for x in v)) == shifted
        for a, b in ((v, u), (tuple(x - 2 for x in u), v), (u, tuple(x + c for x in v))):
            assert bott._lr_class(r, *_class_of(a, b), memo) is rows
        assert len(memo) == size


def _class_of(u, v):
    """The two weights translated to end in 0, as `bott._lr_class` takes them."""
    return tuple(x - u[-1] for x in u), tuple(x - v[-1] for x in v)


def _untranslated(terms, r, total):
    """LR terms at r rows, each padded to length r less `total`, trailing zeros stripped."""
    out = {}
    for key, c in terms.items():
        w = tuple(x - total for x in key + (0,) * (r - len(key)))
        while w and w[-1] == 0:
            w = w[:-1]
        out[w] = c
    return out


def _tensor_gl_by_translation(r, u, v):
    """Reference: translate both weights to partitions, take their LR product
    at rank r, and translate every term back (the path with no column rule)."""
    nu, nv = (-u[-1], -v[-1]) if r else (0, 0)
    prod_ = lr_multiply(tuple(x + nu for x in u), tuple(x + nv for x in v), rank=r)
    return _untranslated(prod_.terms, r, nu + nv)


def _gl_weight(rng, r, low=-4, high=4):
    return tuple(sorted((rng.randint(low, high) for _ in range(r)), reverse=True))


def _random_column(rng, r, k=None):
    c, k = rng.randint(-4, 4), rng.randint(0, r) if k is None else k
    return (c + 1,) * k + (c,) * (r - k)


def test_tensor_gl_column_rule_matches_translation_and_evaluation():
    # a det-twisted column (c+1)^k c^(r-k) on either side, or both, against the
    # translate -> lr_multiply -> translate-back path and against values
    rng = random.Random(2013)
    seen, evaluated = set(), 0
    for n in range(3200):
        r = n % 7
        kind = rng.choice(("left", "right", "both", "neither"))
        k = rng.choice((0, r, None))  # k = 0 and k = r are constant factors
        col = _random_column(rng, r, k)
        other = _random_column(rng, r) if kind == "both" else _gl_weight(rng, r)
        u, v = (col, other) if kind in ("left", "both") else (other, col)
        if kind == "neither":  # the LR path, or a column by chance
            u, v = _gl_weight(rng, r, -2, 1), _gl_weight(rng, r, -1, 2)
        got = tensor_gl(r, u, v)
        assert got.terms == _tensor_gl_by_translation(r, u, v), (r, u, v)
        assert got.rank == r
        seen.add((r, kind, k == 0 or k == r, min(u + v, default=0) < 0))
        if r and n % 8 == 0:  # s_u * s_v = sum c * s_w at a point of distinct ints
            pt = tuple(rng.sample(range(1, 12), r))
            assert evaluate(got, pt) == schur_at(u, pt) * schur_at(v, pt), (r, u, v)
            evaluated += 1
    assert {r for r, *_ in seen} == set(range(7))
    assert {kind for _, kind, *_ in seen} == {"left", "right", "both", "neither"}
    assert {(kind, const, neg) for r, kind, const, neg in seen if r} >= {
        (kind, const, neg)
        for kind in ("left", "right", "both") for const in (True, False) for neg in (True, False)
    }
    assert evaluated >= 300


@pytest.mark.parametrize("scalar", [1.5, Fraction(1, 2), 2.0, Fraction(4, 2)])
def test_expansion_rejects_a_scalar_that_is_not_an_int(scalar):
    # exact arithmetic: truncating would make 1.5 * 3 into 4 and 1/2 * 3 into 1
    e = SchurExpansion({(1,): 3}, rank=2)
    with pytest.raises(TypeError):
        scalar * e
    assert (-2 * e).terms == {(1,): -6}


@pytest.mark.parametrize("coeff", [Fraction(1, 2), 2.7, 1.0])
def test_expansion_rejects_a_coefficient_that_is_not_an_int(coeff):
    # truncating would turn a coefficient 1/2 into no term and 2.7 into 2
    with pytest.raises(TypeError):
        SchurExpansion({(1,): coeff}, rank=2)
    assert SchurExpansion({(1,): True, (2,): 3}, rank=2).terms == {(1,): 1, (2,): 3}


def test_negative_rank_rejected():
    for make in (
        lambda: lr_multiply((1,), (1,), rank=-1),
        lambda: lr_multiply((), (), rank=-1),
        lambda: SchurExpansion({}, rank=-1),
        lambda: SchurExpansion({(1,): 1}, rank=-2),
        lambda: elementary_as_schur(1, rank=-1),
    ):
        with pytest.raises(ShapeError, match="rank must be non-negative"):
            make()
    assert lr_multiply((1,), (1,), rank=0).is_zero()
    assert lr_multiply((), (), rank=0).terms == {(): 1}
    for rank in (1.5, Fraction(2)):
        with pytest.raises(TypeError):
            SchurExpansion({(1,): 1}, rank=rank)
        with pytest.raises(TypeError):
            lr_multiply((2, 1), (2, 1), rank=rank)


def _random_partition(rng, rows, cols):
    return tuple(sorted((rng.randint(1, cols) for _ in range(rng.randint(0, rows))), reverse=True))


def test_shared_steps_table_matches_fresh_products():
    # one table across rank None, ranks 1-6 and factors longer than the rank
    rng = random.Random(11)
    steps = {}
    for _ in range(600):
        a, b = _random_partition(rng, 6, 5), _random_partition(rng, 6, 5)
        rank = rng.choice([None, 1, 2, 3, 4, 5, 6])
        assert lr_multiply(a, b, rank, steps) == lr_multiply(a, b, rank=rank), (a, b, rank)
    assert steps
    assert {rank for _, _, rank in steps} == {None, 1, 2, 3, 4, 5, 6}


def test_shared_steps_table_matches_fresh_products_on_tilting_classes():
    # one table across every class pair `verify_tilting` multiplies at (7,3)
    # and (8,4): each box shape's dual and plain weight, translated to end in 0
    steps, classes = {}, 0
    for d, r in [(7, 3), (8, 4)]:
        shapes = box_partitions(r, d - r)
        duals = {tuple(x - w[-1] for x in w) for w in (dual_weight(p.pad(r)) for p in shapes)}
        plains = {tuple(x - w[-1] for x in w) for w in (p.pad(r) for p in shapes)}
        pairs = {tuple(sorted(pair)) for pair in product(duals, plains)}
        for u, v in sorted(pairs):
            assert lr_multiply(u, v, r, steps) == lr_multiply(u, v, rank=r), (d, r, u, v)
        classes += len(pairs)
    assert classes == 120 + 630
    assert steps


def test_lr_multiply_without_a_table_leaves_no_state(monkeypatch):
    # each call without `steps` starts from nothing: a repeated product redoes
    # every strip extension, and the signature keeps no table as a default
    calls = [0]
    honest = symfunc._strip_extensions

    def counted(*args):
        calls[0] += 1
        return honest(*args)

    monkeypatch.setattr(symfunc, "_strip_extensions", counted)
    assert lr_multiply.__defaults__ == (None, None)
    counts = []
    for _ in range(3):
        calls[0] = 0
        lr_multiply((4, 3, 1), (3, 2, 2), rank=4)
        counts.append(calls[0])
    assert counts[0] == counts[1] == counts[2] > 0
    steps = {}
    lr_multiply((4, 3, 1), (3, 2, 2), 4, steps)
    calls[0] = 0
    lr_multiply((4, 3, 1), (3, 2, 2), 4, steps)
    assert calls[0] == 0  # every transition of the repeat comes from the table
    assert lr_multiply.__defaults__ == (None, None)


# ---------------------------------------------------------------------------
# the strip kernels against the row-by-row recursions they replaced


def _pieri_by_rows(shape, k, rank):
    """Reference order: grow or keep one row at a time, growing first."""
    rows = len(shape) + k if rank is None else min(len(shape) + k, rank)
    ext = shape + (0,) * (rows - len(shape))
    out, grown = {}, []

    def rec(i, left, above):
        if left == 0:
            out[_strip(tuple(grown) + ext[i:])] = 1
        elif rows - i >= left:
            for part in (ext[i] + 1, ext[i]):
                if part <= above:
                    grown.append(part)
                    rec(i + 1, left - (part > ext[i]), part)
                    grown.pop()

    rec(0, k, ext[0] + 1 if rows else 0)
    return out


def _pieri_brute(shape, k, rank):
    """Every 0/1 vector with k ones whose sum with the shape stays weakly
    decreasing, on the first `rank` rows."""
    rows = len(shape) + k if rank is None else min(len(shape) + k, rank)
    ext = shape + (0,) * (rows - len(shape))
    out = {}
    for grown in combinations(range(rows), k):
        new = [x + (i in grown) for i, x in enumerate(ext)]
        if all(x >= y for x, y in zip(new, new[1:])):
            out[_strip(tuple(new))] = 1
    return out


def _pieri_cases():
    for rank in range(7):  # weakly decreasing weights of length rank, negative entries too
        top = 2 if rank <= 4 else 1
        for w in combinations_with_replacement(range(top, -3, -1), rank):
            for k in range(rank + 2):
                yield w, k, rank
    for p in box_partitions(4, 4):  # partitions in infinitely many variables
        for k in range(6):
            yield p.parts, k, None


def test_pieri_runs_match_brute_force_and_row_order():
    seen = set()
    for shape, k, rank in _pieri_cases():
        got = symfunc._add_column(shape, k, rank)
        assert got == _pieri_brute(shape, k, rank), (shape, k, rank)
        assert list(got) == list(_pieri_by_rows(shape, k, rank)), (shape, k, rank)
        rows = len(shape) + k if rank is None else min(len(shape) + k, rank)
        seen.add((rank, k == 0, k > rows, bool(got), bool(shape) and shape[-1] < 0))
    assert {(0, True, False, True, False), (0, False, True, False, False)} <= seen
    assert any(r is None for r, *_ in seen)
    assert any(neg and got and not zero for _, zero, _, got, neg in seen)


def _strip_counts(shape, prev_cum, size, rank):
    """Reference: row-count vectors of one letter's strip, one row at a time."""
    max_rows = len(shape) + 1
    if rank is not None:
        max_rows = min(max_rows, rank)
    counts, ext = [0] * max_rows, shape + (0,)
    results = []

    def rec(row, remaining, placed):
        if remaining == 0:
            results.append(tuple(counts))
            return
        if row >= max_rows:
            return
        if row == 0:
            cap = remaining if prev_cum is None else 0
        else:
            cap = ext[row - 1] - ext[row]
            if prev_cum is not None:
                cap = min(cap, prev_cum[row - 1] - placed)
        for n in range(min(cap, remaining), -1, -1):
            counts[row] = n
            rec(row + 1, remaining - n, placed + n)
        counts[row] = 0

    rec(0, size, 0)
    return results


def _successors_by_counts(shape, prev_cum, size, rank):
    """Reference successors: each count vector bumped onto the shape, then accumulated."""
    out = []
    for counts in _strip_counts(shape, prev_cum, size, rank):
        padded = shape + (0,) * (len(counts) - len(shape))
        new = _strip(tuple(p + c for p, c in zip(padded, counts)))
        out.append((new, tuple(accumulate(counts[: len(new)]))))
    return out


def test_strip_successors_match_the_count_vectors():
    rng = random.Random(29)
    seen = set()
    for _ in range(3000):
        rank = rng.choice([None, 1, 2, 3, 4, 5, 6])
        length = rng.randrange((6 if rank is None else rank) + 1)
        shape = tuple(sorted((rng.randint(1, 5) for _ in range(length)), reverse=True))
        size = rng.randint(1, 6)
        prev_cum = None
        if rng.random() < 0.6:
            prev_cum = tuple(accumulate(rng.randint(0, 2) for _ in range(length)))
        state = (shape, prev_cum, size, rank)
        assert symfunc._strip_extensions(*state) == _successors_by_counts(*state), state
        seen.add((rank, prev_cum is None, bool(_successors_by_counts(*state))))
    # at one row a later letter has nowhere to go: row 0 is the previous letter's
    assert {(r, p, True) for r in (None, 1, 2, 3, 4, 5, 6) for p in (True, False)} - seen == {
        (1, False, True)
    }


@pytest.mark.parametrize("d, r", [(6, 3), (7, 4)])
def test_tilting_steps_tables_match_the_count_vectors(monkeypatch, d, r):
    # the table a tilting sweep leaves, replayed through the reference successors:
    # the same keys in the same order, each with the same successor list
    from schurwin import verify

    products, tables = [], []
    honest = bott.lr_multiply

    def recorded(a, b, rank=None, steps=None):
        products.append((a, b, rank))
        tables.append(steps)
        return honest(a, b, rank, steps)

    monkeypatch.setattr(bott, "lr_multiply", recorded)
    assert verify.verify_tilting(Context(d, r)).passed
    table = tables[0]
    assert products and table and all(t is table for t in tables)
    monkeypatch.setattr(symfunc, "_strip_extensions", _successors_by_counts)
    reference = {}
    for a, b, rank in products:
        symfunc.lr_multiply(a, b, rank, reference)
    assert list(reference.items()) == list(table.items())
