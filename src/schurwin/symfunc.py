"""Exact symmetric-function arithmetic in the Schur basis.

Products use the Littlewood-Richardson tableau rule, one horizontal strip per letter,
each strip's successor states built in one pass (exact integer coefficients, no floats);
a GL(r) product with a det-twisted column (c+1)^k c^(r-k), a wedge power say, is the
Pieri rule on the other weight plus c, one count of grown rows per run of equal entries.
Evaluation takes the Jacobi-Trudi determinant by Bareiss elimination at a point of ints,
as given (any other point is cleared to b / q first, and a float coordinate raises
TypeError); it stays well defined at repeated coordinates, with no bialternant ratio.
Coefficients and scalars are integers: a float or Fraction raises TypeError
instead of being truncated. Nothing is cached between calls unless the caller
passes its own `steps` table of LR strip-DP transitions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import index

from .partitions import (
    Partition, ShapeError, _bareiss, _dotted_weyl, _strip, _translated, check_weight
)


def _pad(key: tuple[int, ...], n: int) -> tuple[int, ...]:
    return key + (0,) * (n - len(key))


class SchurExpansion:
    """Integer linear combination of Schur functions keyed by dominant weights.

    `rank` is the number of variables. Keys needing more than `rank` nonzero
    rows vanish identically there and are dropped on insertion; rank=None
    means infinitely many variables, in which case keys must be partitions,
    and a key shorter than `rank` may not end in a negative entry. Zero
    coefficients are never stored.
    """

    __slots__ = ("rank", "terms")
    __hash__ = None

    def __init__(self, terms=None, rank: int | None = None):
        data: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                key = _strip(check_weight(key))
                if key and key[-1] < 0 and rank is None:
                    raise ShapeError(f"weight {list(key)} needs a finite rank")
                if rank is not None and len(key) > rank:
                    continue
                if key and key[-1] < 0 and len(key) < rank:
                    raise ShapeError(f"weight {list(key)} is not dominant at rank {rank}")
                if coeff:
                    data[key] = data.get(key, 0) + index(coeff)
        self.rank, self.terms = rank, SchurExpansion._trusted(data, rank).terms

    @classmethod
    def _trusted(cls, terms: dict, rank: int | None) -> "SchurExpansion":
        """Build from keys the library made itself: stripped and valid."""
        if rank is not None and index(rank) < 0:  # a float rank raises TypeError
            raise ShapeError(f"rank must be non-negative, got {rank}")
        self = cls.__new__(cls)
        self.rank = rank
        self.terms = {k: c for k, c in terms.items() if c}
        return self

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
        return SchurExpansion._trusted(merged, self.rank)

    def __neg__(self) -> "SchurExpansion":
        return SchurExpansion._trusted({k: -c for k, c in self.terms.items()}, self.rank)

    def __sub__(self, other: "SchurExpansion") -> "SchurExpansion":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "SchurExpansion":
        scalar = index(scalar)  # a float or Fraction raises TypeError, never truncates
        return SchurExpansion._trusted({k: scalar * c for k, c in self.terms.items()}, self.rank)

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
        return SchurExpansion._trusted(out, self.rank)

    def to_json_obj(self):
        return [{"weight": list(k), "coeff": c} for k, c in self.items()]


def _strip_extensions(shape, prev_cum, size, rank):
    """(new shape, cumulative row counts) for each way to add a horizontal strip of
    `size` > 0 boxes of one letter to `shape` within `rank` > 0 rows, by descending
    row-count vector.

    `prev_cum[j]` is the running total of the previous letter through row j+1;
    the lattice-word condition for the new letter is cum(row j) <= prev letter
    cum(row j-1), which together with the strip caps characterises LR fillings.
    One pass builds each pair; rows below the strip keep cumulative count `size`.
    """
    rows = len(shape) + 1 if rank is None else min(len(shape) + 1, rank)
    ext, out = shape + (0,), []

    def rec(row, left, head, cum):
        placed = size - left
        if row == 0:
            cap = left if prev_cum is None else 0
        else:
            cap = ext[row - 1] - ext[row]
            if prev_cum is not None and prev_cum[row - 1] - placed < cap:
                cap = prev_cum[row - 1] - placed
        if cap >= left:  # the strip can end in this row
            tail = shape[row + 1:]
            out.append((head + (ext[row] + left,) + tail, cum + (size,) * (len(tail) + 1)))
            cap = left - 1
        if row + 1 < rows:
            for n in range(cap, -1, -1):
                rec(row + 1, left - n, head + (ext[row] + n,), cum + (placed + n,))

    rec(0, size, (), ())
    return out


def _add_column(shape, k, rank):
    """Pieri rule for s_shape * e_k: every way to add a vertical strip of k
    boxes, at most one per row, within `rank` rows. The strip grows the first
    g rows of each run of equal entries, so it is one g per run, each taken in
    descending order, and each key joins per-run pieces. It only compares
    entries, so `shape` may be any weakly decreasing weight of length `rank`."""
    rows = len(shape) + k if rank is None else min(len(shape) + k, rank)
    ext = shape + (0,) * (rows - len(shape))
    if k == 0 or k > rows:
        return {_strip(ext): 1} if k == 0 else {}
    ends = [i for i in range(1, rows) if ext[i] != ext[i - 1]] + [rows]
    out = {}

    def rec(j, a, left, head):  # run j is ext[a:ends[j]]; `head` is the rows above it, grown
        b, up = ends[j], (ext[a] + 1,)
        for g in range(min(b - a, left), max(left - rows + b, 0) - 1, -1):
            if g == left:  # the strip ends in this run
                key = head + up * g + ext[a + g:]
                out[key if key[-1] else _strip(key)] = 1
            else:
                rec(j + 1, b, left - g, head + up * g + ext[a + g:b])

    rec(0, 0, k, ())
    return out


def lr_multiply(a, b, rank: int | None = None, steps=None) -> SchurExpansion:
    """Schur product s_a * s_b by Littlewood-Richardson tableau enumeration.

    Keys with more than `rank` rows are truncated away (they vanish in rank
    variables). Commutative; the smaller diagram is used as the filling.
    `steps`, a dict the caller owns, keeps each DP state's successors, made in one
    `_strip_extensions` pass, under (state, letter size, rank) across products.
    """
    a = a if isinstance(a, Partition) else Partition(tuple(a))
    b = b if isinstance(b, Partition) else Partition(tuple(b))
    if a.size < b.size:
        a, b = b, a
    if rank is not None and len(a) > rank:
        return SchurExpansion._trusted({}, rank)
    # state: (shape so far, cumulative row counts of the last letter placed)
    states: dict = {(a.parts, None): 1}
    steps = {} if steps is None else steps
    for letter_size in b.parts:
        new_states: dict = {}
        for state, mult in states.items():
            key = (state, letter_size, rank)
            successors = steps.get(key)
            if successors is None:
                successors = steps[key] = _strip_extensions(*state, letter_size, rank)
            for nxt in successors:
                new_states[nxt] = new_states.get(nxt, 0) + mult
        states = new_states
    out: dict[tuple[int, ...], int] = {}
    for (shape, _), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    return SchurExpansion._trusted(out, rank)


def tensor_gl(r: int, u, v) -> SchurExpansion:
    """Decompose the GL(r) tensor product of two length-r dominant weights. A
    det-twisted column (c+1)^k c^(r-k) is det^c e_k: `_add_column` on the other
    weight plus c. Otherwise: the LR product of the two `_translated` weights
    at r rows, each term less the offsets."""
    u, v = check_weight(u, r), check_weight(v, r)
    if u and u[0] - u[-1] > 1:
        u, v = v, u
    if not u or u[0] - u[-1] <= 1:
        c = u[-1] if u else 0
        return SchurExpansion._trusted(_add_column(tuple(x + c for x in v), u.count(c + 1), r), r)
    (u, nu), (v, nv) = _translated(u), _translated(v)
    terms, total = lr_multiply(u, v, r).terms, nu + nv
    return SchurExpansion._trusted(
        {_strip(tuple(x - total for x in _pad(key, r))): c for key, c in terms.items()},
        r,
    )


def _rational(x) -> Fraction:
    """x exactly; a float raises TypeError instead of bringing in its rounding."""
    if isinstance(x, float):
        raise TypeError(f"coordinate {x!r} is a float; pass an int, Fraction or str")
    return Fraction(x)


def _cleared(point) -> tuple[tuple[int, ...], int]:
    """Integers b and a common denominator q with point = b / q."""
    xs = [_rational(x) for x in point]
    q = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (q // x.denominator) for x in xs), q


def elementary_at(point, s: int) -> Fraction:
    """Exact value of the elementary symmetric polynomial e_s at the point."""
    bs, q = _cleared(point)
    if s < 0 or s > len(bs):
        return Fraction(0)
    es = [1] + [0] * s
    for b in bs:
        for m in range(s, 0, -1):
            es[m] += b * es[m - 1]
    return Fraction(es[s], q**s)


def _h_table(xs, top: int) -> tuple[int, ...]:
    """Complete homogeneous values h_0(xs), ..., h_top(xs) at a point of ints."""
    hs = (1,) + (0,) * top
    for b in xs:  # h_m(.., b) = h_m(..) + b * h_{m-1}(.., b)
        hs = tuple(accumulate(hs, lambda prev, h: h + b * prev))
    return hs


def schur_at(w, point) -> int | Fraction:
    """Evaluate the Schur function of a dominant weight at an exact point.

    A point not all ints is cleared to b / q over the integers (a float
    coordinate raises TypeError), and s_w(b / q) = s_w(b) / q^|w|. At integer
    b, a weight that zero padding leaves non-dominant is straightened by Bott's
    rule (`_dotted_weyl`) with its sign, or is 0 on a repeated entry;
    negative weights factor through a power of b_1*...*b_n (all nonzero); a
    partition is the Jacobi-Trudi determinant det h_{lam_i - i + j}(b) over the
    integers from its own `_h_table` of b, safe at repeated coordinates: an int.
    """
    xs = tuple(point)
    w = _strip(check_weight(w))
    if not all(type(x) is int for x in xs):
        bs, q = _cleared(xs)
        return Fraction(schur_at(w, bs)) / Fraction(q) ** sum(w)
    n = len(xs)
    if len(w) > n:
        return 0
    if not w:
        return 1
    full = _pad(w, n)
    if w[-1] < 0 and len(w) < n:  # zero padding left full non-dominant: Bott's rule
        hit = _dotted_weyl(w, (0,) * (n - len(w)))
        if hit is None:
            return 0
        return (-1) ** hit[0] * schur_at(hit[1], xs)
    shift = min(full[-1], 0)
    if shift:
        if 0 in xs:
            raise ZeroDivisionError("negative weight evaluated at a zero coordinate")
        return Fraction(prod(xs)) ** shift * schur_at(tuple(x - shift for x in full), xs)
    ell = len(w)  # w is a partition here
    h = _h_table(xs, w[0] + ell - 1)
    mat = [[h[p + j - i] if p + j >= i else 0 for j in range(ell)] for i, p in enumerate(w)]
    return _bareiss(mat)


def evaluate(e: SchurExpansion, point) -> Fraction:
    """Exact value of an expansion at a point with rank-many coordinates."""
    xs = tuple(map(_rational, point))
    if e.rank is not None and len(xs) != e.rank:
        raise ShapeError(f"point has {len(xs)} coordinates, expansion rank {e.rank}")
    return sum((c * schur_at(key, xs) for key, c in e.terms.items()), Fraction(0))


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
