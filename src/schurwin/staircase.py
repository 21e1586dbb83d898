"""Staircase complexes: the diagram-growth algorithm and its exact sequences.

A base diagram with at most r-1 parts, none longer than d-r+1, determines
K = d-r+1 larger diagrams delta_k and exterior powers s_k; the bundles
S^v(delta_k) (x) wedge^{s_k} V assemble into a long exact sequence ending in
S^v(base). Only the graded terms are computed here, never the differentials.
A base or top passed in is validated; the rows built from it are trusted.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .partitions import Context, Partition, ShapeError, _strip, box_partitions


class StaircaseStep(NamedTuple):
    delta: Partition
    s: int


class StaircaseData(NamedTuple):
    ctx: Context
    base: Partition
    steps: tuple[StaircaseStep, ...]

    @property
    def top(self) -> Partition:
        return self.steps[-1].delta


def check_admissible_base(ctx: Context, delta) -> Partition:
    """Enforce the base shape bounds: fewer than r parts, rows <= d-r+1."""
    delta = delta if isinstance(delta, Partition) else Partition(tuple(delta))
    if ctx.r == 0:
        raise ShapeError("no staircase bases exist for r = 0")
    if len(delta) > ctx.r - 1:
        raise ShapeError(
            f"column bound violated: {list(delta.parts)} has {len(delta)} parts, "
            f"at most r-1 = {ctx.r - 1} allowed"
        )
    if delta and delta.parts[0] > ctx.staircase_length:
        raise ShapeError(
            f"row bound violated: part {delta.parts[0]} exceeds "
            f"d-r+1 = {ctx.staircase_length}"
        )
    return delta


def staircase_diagrams(ctx: Context, delta) -> StaircaseData:
    """Build the K = d-r+1 diagrams delta_k and exponents s_k over a base.

    Step k keeps the base rows above the depth of column k, inserts a row of
    length k there, and pushes each remaining base row down one place with one
    extra box; the matching exterior power is s_k = r + k - (col_k + 1). So every
    delta_k has exactly r positive parts. Each step is built in one expression, as a
    bare tuple over a trusted row.
    """
    delta = check_admissible_base(ctx, delta)
    (d, r), new, trusted = ctx, tuple.__new__, Partition._trusted
    c = len(parts := delta.parts)
    base = parts + (0,) * (r - 1 - c)
    pushed = tuple([x + 1 for x in base])
    steps = []
    for k in range(1, d - r + 2):
        while c and base[c - 1] < k:
            c -= 1  # c is col_k: the number of base rows of length >= k
        steps.append(new(StaircaseStep, (trusted(base[:c] + (k,) + pushed[c:]), r + k - c - 1)))
    return new(StaircaseData, (ctx, delta, tuple(steps)))


class SequenceTerm(NamedTuple):
    delta: Partition
    ext_power: int
    ext_dim: int


def resolution_sequence(ctx: Context, delta) -> tuple[SequenceTerm, ...]:
    """Terms of the exact sequence over a base, top wedge term first.

    Reads 0 -> S^v(delta_K) (x) wedge^{s_K} V -> ... -> S^v(delta_1) (x)
    wedge^{s_1} V -> S^v(base) -> 0; each term carries dim wedge^s V = C(d, s).
    """
    data = staircase_diagrams(ctx, delta)
    terms = [
        SequenceTerm(st.delta, st.s, comb(ctx.d, st.s)) for st in reversed(data.steps)
    ]
    terms.append(SequenceTerm(data.base, 0, 1))
    return tuple(terms)


def base_from_top(ctx: Context, top) -> Partition:
    """Invert the last staircase step: drop the leading d-r+1 row and shorten
    each remaining row by one box."""
    top = top if isinstance(top, Partition) else Partition(tuple(top))
    w = top.pad(ctx.r)
    if ctx.r == 0:
        raise ShapeError("no staircase tops exist for r = 0")
    if w[0] != ctx.staircase_length:
        raise ShapeError(
            f"not an out-of-window top: first row {w[0]} != "
            f"d-r+1 = {ctx.staircase_length}"
        )
    tail = tuple(x - 1 for x in w[1:])
    if tail and tail[-1] < 0:
        raise ShapeError(f"no preimage: {list(top.parts)} has an empty final row")
    return check_admissible_base(ctx, Partition._trusted(_strip(tail)))


def admissible_bases(ctx: Context) -> list[Partition]:
    """Every base accepted by `staircase_diagrams`, smallest first."""
    if ctx.r == 0:
        return []
    return box_partitions(ctx.r - 1, ctx.staircase_length)


def window_bases(ctx: Context) -> list[Partition]:
    """Bases whose whole staircase stays inside two consecutive windows.

    These are the bases with rows at most d-r; equivalently the canonical
    weights of the W_0 generators that do not already lie in W_+1. On this
    subfamily the top diagram determines the base (`base_from_top` round-trips)
    and the final exterior power is always d.
    """
    if ctx.r == 0:
        return []
    return box_partitions(ctx.r - 1, ctx.box_cols)
