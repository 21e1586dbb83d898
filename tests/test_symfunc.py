import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from schurwin.partitions import Partition, ShapeError
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


def test_tensor_gl_shift_independent():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randint(1, 3)
        u = tuple(sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True))
        v = tuple(sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True))
        assert tensor_gl(r, u, v) == tensor_gl(r, u, v, extra_shift=1)


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
