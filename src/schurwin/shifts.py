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
`shift_*_generator` are `general_shift` over one step; `k_matrix` shares their untwisted images
in one memo. `general_shift` keys its nodes on raw (parts, det) tuples, reads each image from
staircase rows (`_image_rows`) once per call (none for a label in both windows) and labels only
its result. K-matrix products skip zeros. An image checks only the caller's generator; its
staircase rows and labels are trusted.
"""

from __future__ import annotations

import operator
from math import comb
from typing import NamedTuple

from .partitions import Context, GeneratorLabel, Partition, ShapeError, _bareiss, _canonical, _strip
from .staircase import base_from_top, staircase_diagrams
from .windows import MATRIX_LIMIT, _in_box, enumerate_window, in_window

SKELETON_LIMIT = 10**5  # most terms one level of a `general_shift` skeleton may hold


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
    """Express a W_+1 generator in W_0 terms (the one-step downward shift)."""
    return general_shift(ctx, 1, 0, g)


def shift_up_generator(ctx: Context, g: GeneratorLabel, keep_det: bool = False) -> TermComplex:
    """Express a W_0 generator in W_+1 terms (the one-step upward shift)."""
    return general_shift(ctx, 0, 1, g, keep_det)


def _image_rows(ctx: Context, parts: tuple[int, ...], m: int, down: bool, keep_det: bool):
    """Rows (degree, canonical parts, det power, ext) of the image of the trusted label (parts, m)
    in W_src less W_dst. Down: its weight is a top; the staircase below it, left-most term in
    degree 0. Up: its weight is a base; the full staircase over it, right-most term in degree 0,
    the top's wedge^d V trivialized away (det V ~ C) unless keep_det is set."""
    w = Partition._trusted(_strip(tuple(x + m for x in parts) + (m,) * (ctx.r - len(parts))))
    if down:
        base = base_from_top(ctx, w)
        rows = [(st.delta.parts, st.s) for st in reversed(staircase_diagrams(ctx, base).steps[:-1])]
        rows.append((base.parts, 0))
    else:
        rows = [(st.delta.parts, st.s) for st in reversed(staircase_diagrams(ctx, w).steps)]
    return [(i, *_canonical(delta, ctx.r), 0 if s == ctx.d and not keep_det else s)
            for i, (delta, s) in enumerate(rows, 0 if down else 1 - len(rows))]


def _unit_step(
    ctx: Context, g: GeneratorLabel, from_k: int, to_k: int, keep_det: bool = False, memo=None
) -> TermComplex:
    """One-step shift between adjacent windows, via det-twist conjugation: the
    W_1 -> W_0 or W_0 -> W_1 image of g untwisted by det^t, t = min(from_k, to_k), from
    `shift_*_generator` (`general_shift` over one step), kept under (untwisted label, downward,
    keep_det) in the caller's `memo`, if any. Not twisted back: its det powers are less t."""
    if abs(from_k - to_k) != 1:
        raise ShapeError("unit step requires adjacent windows")
    down, twist = to_k < from_k, min(from_k, to_k)
    g0 = GeneratorLabel(g.delta, g.det_power - twist)
    key, memo = (g0, down, keep_det), {} if memo is None else memo
    if key not in memo:
        memo[key] = shift_down_generator(ctx, g0) if down else shift_up_generator(ctx, g0, keep_det)
    return memo[key]


def general_shift(
    ctx: Context, from_k: int, to_k: int, g: GeneratorLabel, keep_det: bool = False
) -> TermComplex:
    """Iterate unit steps from W_from to W_to by termwise substitution.

    Degrees add; like terms are never collapsed. The result is an honest complex only for
    |from - to| <= 1, otherwise a skeleton whose contract is its graded terms and K-class.
    A level past SKELETON_LIMIT terms raises ShapeError. The step k -> k +- 1 is the untwisted
    step src -> dst, (src, dst) = (1, 0) or (0, 1), twisted by det^(k - src). A term is
    (degree, node, ext, copies), a node one per distinct raw (parts, det) label less that
    twist. A node (all lie in W_src) in W_dst is its own image; any other reads its
    `_image_rows` once per call. Only the result's nodes get a `GeneratorLabel`, one each.
    """
    if not in_window(g, from_k, ctx):
        raise ShapeError(f"generator not in W_{from_k}: {g}")
    honest = abs(from_k - to_k) <= 1
    if not ctx.r and from_k != to_k:
        # rank zero: every window is generated by the trivial bundle, marked by W_to
        return TermComplex((Term(0, GeneratorLabel(Partition(()), to_k)),), honest)
    step = -1 if to_k < from_k else 1
    src, dst = (1, 0) if step < 0 else (0, 1)
    nodes: dict = {}  # (parts, det) -> [(parts, det), its image or None, label in W_to or None]

    def node(parts, m):
        key = (parts, m)
        return nodes.get(key) or nodes.setdefault(key, [key, None, None])

    terms = [(0, node(g.delta.parts, g.det_power - from_k + src), 0, 1)]
    for _ in range(from_k, to_k, step):
        new_terms = []
        for degree, nd, ext_t, copies_t in terms:
            if nd[1] is None:  # an image's nodes are relative to the next step's twist
                parts, m = nd[0]
                if _in_box(parts, m, dst, ctx):
                    nd[1] = [(0, node(parts, m - step), 0, 1)]
                else:
                    nd[1] = [(i, node(q, c - step), ext, 1)
                             for i, q, c, ext in _image_rows(ctx, parts, m, step < 0, keep_det)]
            for u_degree, u_node, ext, copies in nd[1]:
                copies *= copies_t
                if ext == 0:
                    ext = ext_t
                elif ext_t:
                    # two wedge factors on one term: fold the inherited one
                    # into the copy count, keeping the K-class intact
                    copies *= comb(ctx.d, ext_t)
                new_terms.append((degree + u_degree, u_node, ext, copies))
            if len(new_terms) > SKELETON_LIMIT:
                raise ShapeError(f"a level of the W_{from_k} -> W_{to_k} skeleton has "
                                 f"over SKELETON_LIMIT={SKELETON_LIMIT:,} terms")
        terms = new_terms
    terms.sort(key=operator.itemgetter(0))
    for parts, m in {nd[0] for _, nd, _, _ in terms}:
        nodes[parts, m][2] = GeneratorLabel(Partition._trusted(parts), m + to_k - src)
    terms = [Term(deg, nd[2], ext, copies) for deg, nd, ext, copies in terms]
    return TermComplex(tuple(terms), honest)


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
        return KMatrix(self.ctx, self.from_k, other.to_k, _mat_mul(self.entries, other.entries))

    def determinant(self) -> int:
        return int_determinant(self.entries)

    def is_identity(self) -> bool:
        e = self.entries
        return all(tuple(row) == one for row, one in zip(e, _identity_rows(len(e))))


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity's rows, each a slice of one zero-row template with a 1 in its middle."""
    template = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    return tuple(template[n - 1 - i:2 * n - 1 - i] for i in range(n))


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


def int_determinant(rows) -> int:
    """Exact determinant of a square int matrix, else ShapeError; a float: TypeError. While some
    row i has one nonzero left, Laplace expansion along it peels it at column p(i); p sends the
    rest, empty rows too, in order to the free columns. det = sign(p) * peeled * Bareiss(rest)."""
    a = [list(map(operator.index, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError(f"not a square matrix: rows of lengths {[len(row) for row in a]}")
    live = [{j for j, x in enumerate(row) if x} for row in a]  # nonzero columns not peeled
    rows_at: list[list[int]] = [[] for _ in a]  # column -> the rows with a nonzero there
    for i, cols in enumerate(live):
        for j in cols:
            rows_at[j].append(i)
    p, det, ready = {}, 1, [i for i, cols in enumerate(live) if len(cols) < 2]
    while ready:
        i = ready.pop()
        if live[i]:  # else row i is zero off the peeled columns: Bareiss(rest) is 0
            p[i] = j = live[i].pop()
            det *= a[i][j]
            for h in rows_at[j]:
                live[h].discard(j)
                if len(live[h]) == 1:
                    ready.append(h)
    free_rows = [i for i in range(n) if i not in p]
    free_cols = sorted(set(range(n)).difference(p.values()))
    block = [[a[i][j] for j in free_cols] for i in free_rows]
    p.update(zip(free_rows, free_cols))
    for i in range(n):  # sort p by swaps, each flipping the sign
        while (j := p[i]) != i:
            p[i], p[j], det = p[j], j, -det
    return det * _bareiss(block)


def k_matrix(ctx: Context, from_k: int, to_k: int, memo=None) -> KMatrix:
    """K-class matrix of the window shift, composed from unit steps that share
    one memo of untwisted images (`_unit_step`): the caller's `memo`, if given.
    Each level indexes its target basis by untwisted label, so `k_class` reads
    the shared images as they are. Past MATRIX_LIMIT generators: ShapeError, before any image."""
    if (n := comb(ctx.d, ctx.r)) > MATRIX_LIMIT:
        raise ShapeError(f"a K-matrix on {n:,} generators, over MATRIX_LIMIT={MATRIX_LIMIT:,}")
    if from_k == to_k:
        return KMatrix(ctx, from_k, to_k, _identity_rows(len(enumerate_window(ctx, from_k))))
    step, current, entries = -1 if to_k < from_k else 1, from_k, None
    b_from = enumerate_window(ctx, from_k)
    memo = {} if memo is None else memo
    while current != to_k:
        nxt = current + step
        b_to = enumerate_window(ctx, nxt)
        twist = min(current, nxt)
        index = {GeneratorLabel(g.delta, g.det_power - twist): i for i, g in enumerate(b_to)}
        unit = tuple(
            k_class(ctx, _unit_step(ctx, g, current, nxt, memo=memo), b_to, index) for g in b_from
        )
        entries = unit if entries is None else _mat_mul(entries, unit)
        b_from, current = b_to, nxt
    return KMatrix(ctx, from_k, to_k, entries)


def cotwist_shift_amount(ctx: Context) -> int:
    """Homological shift relating the downward inverse shift to the cotwist."""
    return 2 * (ctx.d - ctx.r) - 1
