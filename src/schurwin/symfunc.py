"""Exact symmetric-function arithmetic in the Schur basis.

Products are computed by the Littlewood-Richardson tableau rule (exact integer
coefficients, no floating point anywhere). Evaluation clears denominators and
takes the Jacobi-Trudi determinant over the integers by Bareiss elimination;
Jacobi-Trudi stays well defined at points with repeated coordinates, and the
bialternant ratio is never used. Nothing is cached between calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .partitions import Partition, ShapeError, check_weight


def _strip(key: tuple[int, ...]) -> tuple[int, ...]:
    while key and key[-1] == 0:
        key = key[:-1]
    return key


def _pad(key: tuple[int, ...], n: int) -> tuple[int, ...]:
    return key + (0,) * (n - len(key))


class SchurExpansion:
    """Integer linear combination of Schur functions keyed by dominant weights.

    `rank` is the number of variables. Keys needing more than `rank` nonzero
    rows vanish identically there and are dropped on insertion; rank=None
    means infinitely many variables, in which case keys must be partitions.
    Zero coefficients are never stored.
    """

    __slots__ = ("rank", "terms")
    __hash__ = None

    def __init__(self, terms=None, rank: int | None = None):
        self.rank = rank
        data: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                key = _strip(check_weight(key))
                if key and key[-1] < 0 and rank is None:
                    raise ShapeError(f"weight {list(key)} needs a finite rank")
                if rank is not None and len(key) > rank:
                    continue
                if coeff:
                    data[key] = data.get(key, 0) + int(coeff)
        self.terms = {k: c for k, c in data.items() if c}

    def __eq__(self, other):
        return (
            isinstance(other, SchurExpansion)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __repr__(self):
        body = ", ".join(f"{k}: {c}" for k, c in self.items())
        return f"SchurExpansion({{{body}}}, rank={self.rank})"

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Term list in a deterministic (sorted-key) order."""
        return sorted(self.terms.items())

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if self.rank != other.rank:
            raise ShapeError("rank mismatch in sum")
        merged = dict(self.terms)
        for k, c in other.terms.items():
            merged[k] = merged.get(k, 0) + c
        return SchurExpansion(merged, rank=self.rank)

    def __neg__(self) -> "SchurExpansion":
        return SchurExpansion({k: -c for k, c in self.terms.items()}, rank=self.rank)

    def __sub__(self, other: "SchurExpansion") -> "SchurExpansion":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "SchurExpansion":
        return SchurExpansion(
            {k: scalar * c for k, c in self.terms.items()}, rank=self.rank
        )

    def multiply(self, other: "SchurExpansion") -> "SchurExpansion":
        """Full product, term by term through the LR rule."""
        if self.rank != other.rank:
            raise ShapeError("rank mismatch in product")
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if self.rank is None:
                    part = lr_multiply(Partition(k1), Partition(k2))
                else:
                    part = tensor_gl(self.rank, _pad(k1, self.rank), _pad(k2, self.rank))
                for k3, c3 in part.terms.items():
                    out[k3] = out.get(k3, 0) + c1 * c2 * c3
        return SchurExpansion(out, rank=self.rank)

    def to_json_obj(self):
        return [{"weight": list(k), "coeff": c} for k, c in self.items()]


def _strip_extensions(shape, size, prev_cum, rank):
    """Row-count vectors for adding a horizontal strip of one letter.

    `prev_cum[j]` is the running total of the previous letter through row j+1;
    the lattice-word condition for the new letter is cum(row j) <= prev letter
    cum(row j-1), which together with the strip caps characterises LR fillings.
    """
    max_rows = len(shape) + 1
    if rank is not None:
        max_rows = min(max_rows, rank)
    counts = [0] * max_rows
    results = []

    def rec(row, remaining, placed):
        if remaining == 0:
            results.append(tuple(counts))
            return
        if row >= max_rows:
            return
        here = shape[row] if row < len(shape) else 0
        if row == 0:
            cap = remaining
        else:
            above = shape[row - 1] if row - 1 < len(shape) else 0
            cap = above - here
        if prev_cum is not None:
            if row == 0:
                cap = 0
            else:
                cap = min(cap, prev_cum[min(row - 1, len(prev_cum) - 1)] - placed)
        cap = min(cap, remaining)
        for n in range(cap, -1, -1):
            counts[row] = n
            rec(row + 1, remaining - n, placed + n)
        counts[row] = 0

    rec(0, size, 0)
    return results


def _bump(shape, counts):
    n = len(shape)
    rows = max([n] + [i + 1 for i, c in enumerate(counts) if c])
    return tuple(
        (shape[i] if i < n else 0) + (counts[i] if i < len(counts) else 0)
        for i in range(rows)
    )


def lr_multiply(a, b, rank: int | None = None) -> SchurExpansion:
    """Schur product s_a * s_b by Littlewood-Richardson tableau enumeration.

    Keys with more than `rank` rows are truncated away (they vanish in rank
    variables). Commutative; the smaller diagram is used as the filling.
    """
    a = a if isinstance(a, Partition) else Partition(tuple(a))
    b = b if isinstance(b, Partition) else Partition(tuple(b))
    if a.size < b.size:
        a, b = b, a
    if rank is not None and len(a) > rank:
        return SchurExpansion(rank=rank)
    # state: (shape so far, cumulative row counts of the last letter placed)
    states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {
        (a.parts, None): 1
    }
    for letter_size in b.parts:
        new_states: dict = {}
        for (shape, prev_cum), mult in states.items():
            for counts in _strip_extensions(shape, letter_size, prev_cum, rank):
                new_shape = _bump(shape, counts)
                cum, total = [], 0
                for i in range(len(new_shape)):
                    total += counts[i] if i < len(counts) else 0
                    cum.append(total)
                key = (new_shape, tuple(cum))
                new_states[key] = new_states.get(key, 0) + mult
        states = new_states
    out: dict[tuple[int, ...], int] = {}
    for (shape, _), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    return SchurExpansion(out, rank=rank)


def tensor_gl(r: int, u, v, extra_shift: int = 0) -> SchurExpansion:
    """Decompose the GL(r) tensor product of two length-r dominant weights.

    Both weights are translated by multiples of (1,...,1) into partitions,
    multiplied by the LR rule truncated at r rows, and translated back. The
    answer does not depend on the translation; `extra_shift` exists so tests
    can confirm that.
    """
    u = check_weight(u, r)
    v = check_weight(v, r)
    if r == 0:
        return SchurExpansion({(): 1}, rank=0)
    nu = max(0, -u[-1]) + extra_shift
    nv = max(0, -v[-1]) + extra_shift
    a = Partition(tuple(x + nu for x in u))
    b = Partition(tuple(x + nv for x in v))
    total = nu + nv
    shifted: dict[tuple[int, ...], int] = {}
    for key, c in lr_multiply(a, b, rank=r).terms.items():
        shifted[tuple(x - total for x in _pad(key, r))] = c
    return SchurExpansion(shifted, rank=r)


def _bareiss(a: list[list[int]]) -> int:
    """Integer determinant by Bareiss's fraction-free elimination.

    Every division is exact (Bareiss 1968, Math. Comp. 22), so entries stay
    integers throughout. Eliminates in place: `a` is consumed.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _cleared(xs) -> tuple[list[int], int]:
    """Integers b and a common denominator q with xs = b / q."""
    q = lcm(*(x.denominator for x in xs))
    return [x.numerator * (q // x.denominator) for x in xs], q


def elementary_at(point, s: int) -> Fraction:
    """Exact value of the elementary symmetric polynomial e_s at the point."""
    bs, q = _cleared([Fraction(x) for x in point])
    if s < 0 or s > len(bs):
        return Fraction(0)
    es = [1] + [0] * s
    for b in bs:
        for m in range(s, 0, -1):
            es[m] += b * es[m - 1]
    return Fraction(es[s], q**s)


def schur_at(w, point) -> Fraction:
    """Evaluate the Schur function of a dominant weight at exact rationals.

    Negative weights factor through a power of x_1*...*x_n (all coordinates
    must then be nonzero). The partition piece is homogeneous, so with the
    point written as b / q over integers, s_lam(b / q) = s_lam(b) / q^|lam|,
    and s_lam(b) is the Jacobi-Trudi determinant det h_{lam_i - i + j}(b)
    taken over the integers. Jacobi-Trudi keeps repeated coordinates safe.
    """
    xs = tuple(x if type(x) is Fraction else Fraction(x) for x in point)
    w = _strip(check_weight(w))
    n = len(xs)
    if len(w) > n:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    full = _pad(w, n)
    shift = min(full[-1], 0)
    if shift:
        if any(x == 0 for x in xs):
            raise ZeroDivisionError("negative weight evaluated at a zero coordinate")
        scale = prod(xs) ** shift
        return scale * schur_at(tuple(x - shift for x in full), xs)
    lam = _strip(full)
    ell = len(lam)
    if ell == 0:
        return Fraction(1)
    if lam[-1] < 0:  # a negative part before a padded zero: last row empty
        return Fraction(0)
    bs, q = _cleared(xs)
    top = lam[0] + ell - 1
    hs = [1] + [0] * top
    for b in bs:
        for m in range(1, top + 1):
            hs[m] += b * hs[m - 1]
    mat = [
        [hs[lam[i] + j - i] if lam[i] + j - i >= 0 else 0 for j in range(ell)]
        for i in range(ell)
    ]
    return Fraction(_bareiss(mat), q ** sum(lam))


def evaluate(e: SchurExpansion, point) -> Fraction:
    """Exact value of an expansion at a point with rank-many coordinates."""
    xs = tuple(Fraction(x) for x in point)
    if e.rank is not None and len(xs) != e.rank:
        raise ShapeError(f"point has {len(xs)} coordinates, expansion rank {e.rank}")
    total = Fraction(0)
    for key, c in e.terms.items():
        total += c * schur_at(key, xs)
    return total


def dimension_gl(w, n: int) -> int:
    """Weyl dimension of the GL(n) irreducible with highest weight w."""
    w = check_weight(w, n)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl dimension of {list(w)} is not an integer")
    return q


def elementary_as_schur(s: int, rank: int | None = None) -> SchurExpansion:
    """The s-th elementary symmetric function: a single-column Schur key.

    Zero when the column is taller than the rank.
    """
    if s < 0:
        raise ShapeError("elementary index must be non-negative")
    return SchurExpansion({(1,) * s: 1}, rank=rank)
