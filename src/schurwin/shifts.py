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
`shift_*_generator` are `general_shift` over one step, which reads each image from staircase
rows (`_image_rows`) once per call, each row named by `_canonical`; an image checks only the
caller's generator. `general_shift` makes its output in one pass, with no second pass to
label the terms: its last level appends each `Term` as it substitutes, making a node's label
the first time that level reaches it. W_k is W_0 twisted by det^k, listed in the same order, and
the twist commutes with the shift, so every unit step M_k,k∓1 is one matrix U per direction
(`_unit_step`) and M_kl is a power of it: det-conjugation holds by construction. A caller's
`k_matrix` memo keeps one table per Context, each power U^j under (downward, j), the identity
M_kk = U^0 too, so one memo holds one identity however many k it is asked for.
"""

from __future__ import annotations

import operator
from itertools import compress
from math import comb
from typing import NamedTuple

from .partitions import (
    Context, GeneratorLabel, Partition, ShapeError, _bareiss, _canonical, _refuse_non_ints, _strip
)
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
    in W_src less W_dst, each named by `_canonical`. Down: its weight is a top; the staircase
    below it, then its base, left-most term in degree 0. Up: its weight is a base; the full
    staircase over it, right-most term in degree 0, the top's wedge^d V trivialized away
    (det V ~ C) unless keep_det is set."""
    w = Partition._trusted(_strip(tuple([x + m for x in parts]) + (m,) * (ctx.r - len(parts))))
    base, d = base_from_top(ctx, w) if down else w, ctx.d
    steps = staircase_diagrams(ctx, base).steps[-1 - down::-1]  # reversed; down: less the top
    terms = [*steps, (base, 0)] if down else steps
    return [(i, *_canonical(p.parts, ctx.r), 0 if s == d and not keep_det else s)
            for i, (p, s) in enumerate(terms, 0 if down else 1 - len(terms))]


def _unit_step(ctx: Context, down: bool) -> tuple[tuple[int, ...], ...]:
    """The entries of U = M_10 (down) or M_01: one `k_class` row per source generator, its
    `shift_*_generator` image in the target basis. Each of W_1 and W_0 is listed once."""
    w1, w0 = enumerate_window(ctx, 1), enumerate_window(ctx, 0)
    src, dst, shift = (w1, w0, shift_down_generator) if down else (w0, w1, shift_up_generator)
    index = {g: i for i, g in enumerate(dst)}
    return tuple(k_class(ctx, shift(ctx, g), dst, index) for g in src)


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
    `_image_rows` once per call. The last level appends the result's `Term`s as it substitutes;
    a node gets its `GeneratorLabel` the first time that level reaches it, so only the result's
    nodes get one, one each. A from_k or to_k that is not an int: ShapeError, before any window.
    """
    _refuse_non_ints(from_k=from_k, to_k=to_k)
    if not in_window(g, from_k, ctx):
        raise ShapeError(f"generator not in W_{from_k}: {g}")
    if from_k == to_k:  # no level: g is its own image
        return TermComplex((Term(0, g),))
    honest = abs(from_k - to_k) <= 1
    if not ctx.r:
        # rank zero: every window is generated by the trivial bundle, marked by W_to
        return TermComplex((Term(0, GeneratorLabel(Partition(()), to_k)),), honest)
    step = -1 if to_k < from_k else 1
    src, dst = (1, 0) if step < 0 else (0, 1)
    wedge = [comb(ctx.d, s) for s in range(ctx.d + 1)]  # C(d, s), for the inherited-wedge fold
    nodes: dict = {}  # (parts, det) -> [(parts, det), its image or None, label in W_to or None]

    def node(parts, m):
        key = (parts, m)
        return nodes.get(key) or nodes.setdefault(key, [key, None, None])

    terms, new = [(0, node(g.delta.parts, g.det_power - from_k + src), 0, 1)], tuple.__new__
    for level in range(abs(to_k - from_k), 0, -1):  # level 1 is the last
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
                    copies *= wedge[ext_t]
                if level > 1:
                    new_terms.append((degree + u_degree, u_node, ext, copies))
                    continue
                if (label := u_node[2]) is None:  # first reached on the last level
                    parts, m = u_node[0]
                    label = u_node[2] = GeneratorLabel(Partition._trusted(parts), m + to_k - src)
                new_terms.append(new(Term, (degree + u_degree, label, ext, copies)))
            if len(new_terms) > SKELETON_LIMIT:
                raise ShapeError(f"a level of the W_{from_k} -> W_{to_k} skeleton has "
                                 f"over SKELETON_LIMIT={SKELETON_LIMIT:,} terms")
        terms = new_terms
    terms.sort(key=operator.itemgetter(0))
    return TermComplex(tuple(terms), honest)


def k_class(ctx: Context, tc: TermComplex, basis: list[GeneratorLabel], index=None):
    """Alternating-sum class, a tuple of ints, of a complex in the given
    generator basis; `index`, if given, is the basis's {label: position} map."""
    index = {g: i for i, g in enumerate(basis)} if index is None else index
    vec = [0] * len(basis)
    for t in tc.terms:
        if (i := index.get(t.label)) is None:
            raise ShapeError(f"term {t.label} lies outside the target basis")
        vec[i] += (-1 if t.degree % 2 else 1) * t.copies * comb(ctx.d, t.ext_power)
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
        """Each of the n rows in place: length n, a 1 on the diagonal and n - 1 zeros."""
        n = len(e := self.entries)
        return all(len(row) == n and row[i] == 1 and row.count(0) == n - 1
                   for i, row in enumerate(e))


def _mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """Product of dense integer row tuples; a ragged factor: ShapeError. Each nonzero a[i][k],
    found by `itertools.compress`, adds a[i][k] * (compressed row k of b) into output row i."""
    mid, m = len(b), len(b[0]) if b else 0
    if not all(len(row) == mid for row in a):
        raise ShapeError(f"left factor has a row whose length is not {mid}")
    if not all(len(row) == m for row in b):
        raise ShapeError(f"right factor has a row whose length is not {m}")
    sparse_b = [tuple(zip(compress(range(m), row), compress(row, row))) for row in b]
    out = []
    for row in a:
        acc = [0] * m
        for x, b_row in compress(zip(row, sparse_b), row):
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
    live = [set(compress(range(n), row)) for row in a]  # nonzero columns not peeled
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
    """K-class matrix M_kl = U^|l - k|, U the unit step (`_unit_step`) in l's direction. The
    caller owns `memo`, if given; its table `memo[ctx]` keeps each power U^j under (downward, j):
    U^0 the identity, under (False, 0) and only once some k -> k is asked for, U^1 = U and
    U^j = U^(j-1) @ U, and a call resumes from the highest power it holds. Past MATRIX_LIMIT
    generators: ShapeError, before any image; a from_k or to_k that is not an int: ShapeError."""
    _refuse_non_ints(from_k=from_k, to_k=to_k)
    if (n := comb(ctx.d, ctx.r)) > MATRIX_LIMIT:
        raise ShapeError(f"a K-matrix on {n:,} generators, over MATRIX_LIMIT={MATRIX_LIMIT:,}")
    powers, down = ({} if memo is None else memo).setdefault(ctx, {}), to_k < from_k
    for j in range(from_k != to_k, abs(to_k - from_k) + 1):
        if (down, j) not in powers:
            powers[down, j] = (_mat_mul(powers[down, j - 1], powers[down, 1]) if j > 1
                               else _unit_step(ctx, down) if j
                               else tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))
    return KMatrix(ctx, from_k, to_k, powers[down, abs(to_k - from_k)])


def cotwist_shift_amount(ctx: Context) -> int:
    """Homological shift relating the downward inverse shift to the cotwist."""
    return 2 * (ctx.d - ctx.r) - 1
