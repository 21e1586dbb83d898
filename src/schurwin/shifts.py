"""Window-shift actions on generators: graded term complexes and K-matrices.

Degree conventions: the one-step shift toward the lower window places its
left-most (highest wedge power) term in degree 0 with degrees increasing
rightward; the inverse direction places the right-most term in degree 0 with
degrees decreasing leftward. Together these make the two K-class matrices
mutually inverse, which is what the relation tests check.

Single-step outputs are honest complexes. Multi-step outputs are skeletons:
only the graded terms and the K-class are meaningful, like terms are not
collapsed, and an inherited wedge factor may be folded into the copy count.
The trivialization det V ~ C is applied by dropping wedge^d V factors unless
`keep_det` asks to retain them for display.
A call of `general_shift` or `k_matrix` builds each untwisted unit-step image
once, and K-matrix products skip zeros: a unit step has few nonzeros per row.
An image checks only the caller's generator; its staircase rows and labels are trusted.
"""

from __future__ import annotations

import operator
from math import comb
from typing import NamedTuple

from .partitions import Context, GeneratorLabel, Partition, ShapeError, _bareiss, _label
from .staircase import base_from_top, staircase_diagrams
from .windows import enumerate_window, in_window


class Term(NamedTuple):
    degree: int
    label: GeneratorLabel
    ext_power: int = 0
    copies: int = 1


class _TermComplexFields(NamedTuple):
    terms: tuple[Term, ...]
    honest: bool = True


class TermComplex(_TermComplexFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, terms: tuple[Term, ...], honest: bool = True):
        if not terms:
            raise ShapeError("a term complex needs at least one term")
        degs = sorted({t.degree for t in terms})
        if degs != list(range(degs[0], degs[-1] + 1)):
            raise ShapeError(f"degrees must form a contiguous interval, got {degs}")
        return super().__new__(cls, terms, honest)

    @property
    def degree_span(self) -> tuple[int, int]:
        degs = [t.degree for t in self.terms]
        return (min(degs), max(degs))

    def is_single_generator(self) -> bool:
        t = self.terms
        return (
            len(t) == 1
            and t[0].degree == 0
            and t[0].ext_power == 0
            and t[0].copies == 1
        )


def shift_down_generator(ctx: Context, g: GeneratorLabel) -> TermComplex:
    """Express a W_+1 generator in W_0 terms (the one-step downward shift).

    Generators in the overlap map to themselves. An out-of-window generator
    is replaced by the truncated staircase sequence over the base recovered
    from its weight, left-most term in degree 0; the dropped top term's
    wedge^d V factor is where the trivialization det V ~ C happens.
    """
    if not in_window(g, 1, ctx):
        raise ShapeError(f"generator not in W_+1: {g}")
    if in_window(g, 0, ctx):
        return TermComplex((Term(0, g),), honest=True)
    base = base_from_top(ctx, Partition(g.weight(ctx.r)))
    data = staircase_diagrams(ctx, base)
    terms = []
    for idx, st in enumerate(reversed(data.steps[:-1])):
        terms.append(Term(idx, _label(st.delta, ctx.r, 0), st.s))
    terms.append(Term(len(data.steps) - 1, _label(base, ctx.r, 0), 0))
    return TermComplex(tuple(terms), honest=True)


def shift_up_generator(
    ctx: Context, g: GeneratorLabel, keep_det: bool = False
) -> TermComplex:
    """Express a W_0 generator in W_+1 terms (the one-step upward shift).

    Out-of-overlap generators have a box-partition weight ending in zero,
    which is exactly a staircase base; the full staircase above it is the
    answer, right-most term in degree 0, degrees decreasing to -(K-1). The
    top term's wedge^d V factor is trivialized away unless keep_det is set.
    """
    if not in_window(g, 0, ctx):
        raise ShapeError(f"generator not in W_0: {g}")
    if in_window(g, 1, ctx):
        return TermComplex((Term(0, g),), honest=True)
    base = Partition(g.weight(ctx.r))
    data = staircase_diagrams(ctx, base)
    span = len(data.steps) - 1
    terms = []
    for idx, st in enumerate(reversed(data.steps)):
        ext = 0 if st.s == ctx.d and not keep_det else st.s
        terms.append(Term(-span + idx, _label(st.delta, ctx.r, 0), ext))
    return TermComplex(tuple(terms), honest=True)


def _unit_step(
    ctx: Context, g: GeneratorLabel, from_k: int, to_k: int, keep_det: bool = False, memo=None
) -> TermComplex:
    """One-step shift between adjacent windows, via det-twist conjugation: the
    untwisted W_1 -> W_0 or W_0 -> W_1 image is kept under (untwisted label,
    downward, keep_det) in the caller's `memo`, if any, and twisted back."""
    if abs(from_k - to_k) != 1:
        raise ShapeError("unit step requires adjacent windows")
    if ctx.r == 0:
        # rank zero: every window is generated by the trivial bundle; the
        # shift is the identity, relabelled with the target window's marker
        return TermComplex((Term(0, GeneratorLabel(Partition(()), to_k)),))
    down = to_k < from_k
    twist = to_k if down else from_k
    g0 = GeneratorLabel(g.delta, g.det_power - twist)
    key, memo = (g0, down, keep_det), {} if memo is None else memo
    if key not in memo:
        memo[key] = shift_down_generator(ctx, g0) if down else shift_up_generator(ctx, g0, keep_det)
    if not twist:
        return memo[key]
    terms = tuple(
        Term(t.degree, GeneratorLabel(t.label.delta, t.label.det_power + twist), *t[2:])
        for t in memo[key].terms
    )
    return TermComplex(terms, honest=True)


def general_shift(
    ctx: Context, from_k: int, to_k: int, g: GeneratorLabel, keep_det: bool = False
) -> TermComplex:
    """Iterate unit steps from W_from to W_to by termwise substitution.

    Degrees add; like terms are never collapsed. The result is an honest
    complex only for |from - to| <= 1, otherwise a skeleton whose contract is
    its graded terms and K-class.
    """
    if not in_window(g, from_k, ctx):
        raise ShapeError(f"generator not in W_{from_k}: {g}")
    terms: list[Term] = [Term(0, g)]
    current = from_k
    step = -1 if to_k < from_k else 1
    memo: dict = {}  # untwisted unit-step images, shared by every step
    while current != to_k:
        nxt = current + step
        new_terms: list[Term] = []
        images: dict[GeneratorLabel, TermComplex] = {}
        for t in terms:
            if t.label not in images:
                images[t.label] = _unit_step(ctx, t.label, current, nxt, keep_det, memo)
            for u in images[t.label].terms:
                copies = t.copies * u.copies
                if t.ext_power == 0:
                    ext = u.ext_power
                elif u.ext_power == 0:
                    ext = t.ext_power
                else:
                    # two wedge factors on one term: fold the inherited one
                    # into the copy count, keeping the K-class intact
                    ext = u.ext_power
                    copies *= comb(ctx.d, t.ext_power)
                new_terms.append(Term(t.degree + u.degree, u.label, ext, copies))
        terms = new_terms
        current = nxt
    terms.sort(key=lambda t: t.degree)
    return TermComplex(tuple(terms), honest=abs(from_k - to_k) <= 1)


def k_class(ctx: Context, tc: TermComplex, basis: list[GeneratorLabel], index=None):
    """Alternating-sum class, a tuple of ints, of a complex in the given
    generator basis; `index`, if given, is the basis's {label: position} map."""
    index = {g: i for i, g in enumerate(basis)} if index is None else index
    vec = [0] * len(basis)
    for t in tc.terms:
        if t.label not in index:
            raise ShapeError(f"term {t.label} lies outside the target basis")
        sign = -1 if t.degree % 2 else 1
        vec[index[t.label]] += sign * t.copies * comb(ctx.d, t.ext_power)
    return tuple(vec)


class KMatrix(NamedTuple):
    """Integer change-of-basis matrix between two window generator bases.

    Rows are indexed by the source window basis, columns by the target one:
    row i expands the shift image of source generator i. Always unimodular.
    """

    ctx: Context
    from_k: int
    to_k: int
    entries: tuple[tuple[int, ...], ...]

    def row_basis(self) -> list[GeneratorLabel]:
        return enumerate_window(self.ctx, self.from_k)

    def col_basis(self) -> list[GeneratorLabel]:
        return enumerate_window(self.ctx, self.to_k)

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        if self.ctx != other.ctx or self.to_k != other.from_k:
            raise ShapeError("K-matrices do not compose")
        return KMatrix(
            self.ctx, self.from_k, other.to_k, _mat_mul(self.entries, other.entries)
        )

    def determinant(self) -> int:
        return unit_step_determinant(self.entries)

    def is_identity(self) -> bool:
        e = self.entries
        return all(tuple(r) == (0,) * i + (1,) + (0,) * (len(e) - 1 - i) for i, r in enumerate(e))


def _mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """Product of dense integer row tuples that skips zeros: each nonzero
    a[i][k] adds a[i][k] * (nonzeros of row k of b) into output row i."""
    mid, m = len(b), len(b[0]) if b else 0
    if not all(len(row) == mid for row in a):
        raise ShapeError(f"left factor has a row whose length is not {mid}")
    sparse_b = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc = [0] * m
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, v in b_row:
                    acc[j] += x * v
        out.append(tuple(acc))
    return tuple(out)


def _square(rows):
    """The rows themselves, once checked to form a square matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise ShapeError(f"not a square matrix: rows of lengths {[len(row) for row in rows]}")
    return rows


def int_determinant(rows) -> int:
    """Exact Bareiss determinant of a square int matrix, else ShapeError; a float: TypeError."""
    return _bareiss(_square([list(map(int, map(operator.index, row))) for row in rows]))


def unit_step_determinant(rows) -> int:
    """Exact determinant of a square integer matrix, cheap for a unit step.

    The rows R whose only nonzero entry is a 1, each in a column of C that no
    earlier such row takes, are set aside: a unit step's overlap rows are of
    this kind. Laplace expansion along R leaves (-1)^(sum R + sum C) *
    sign(R -> C) times the determinant of the block off R and C.
    """
    taken: dict[int, int] = {}  # column -> row, in row order
    for i, row in enumerate(_square(rows)):
        nonzero = [j for j, x in enumerate(row) if x]
        if len(nonzero) == 1 and row[nonzero[0]] == 1:
            taken.setdefault(nonzero[0], i)
    cols = list(taken)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    sign = (-1) ** (sum(taken.values()) + sum(cols) + inversions)
    keep = [j for j in range(len(rows)) if j not in taken]
    skip = set(taken.values())
    block = [[row[j] for j in keep] for i, row in enumerate(rows) if i not in skip]
    return sign * int_determinant(block)


def k_matrix(ctx: Context, from_k: int, to_k: int, memo=None) -> KMatrix:
    """K-class matrix of the window shift, composed from unit steps that share
    one memo of untwisted images (`_unit_step`): the caller's `memo`, if given."""
    if from_k == to_k:
        n = len(enumerate_window(ctx, from_k))
        entries = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return KMatrix(ctx, from_k, to_k, entries)
    step = -1 if to_k < from_k else 1
    current = from_k
    entries = None
    b_from = enumerate_window(ctx, from_k)
    memo = {} if memo is None else memo
    while current != to_k:
        nxt = current + step
        b_to = enumerate_window(ctx, nxt)
        index = {g: i for i, g in enumerate(b_to)}
        unit = tuple(
            k_class(ctx, _unit_step(ctx, g, current, nxt, memo=memo), b_to, index) for g in b_from
        )
        entries = unit if entries is None else _mat_mul(entries, unit)
        b_from, current = b_to, nxt
    return KMatrix(ctx, from_k, to_k, entries)


def cotwist_shift_amount(ctx: Context) -> int:
    """Homological shift relating the downward inverse shift to the cotwist."""
    return 2 * (ctx.d - ctx.r) - 1
