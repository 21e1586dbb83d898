"""Grade-restriction windows: generator sets W_k and membership tests."""

from __future__ import annotations

import operator
from math import comb

from .partitions import Context, GeneratorLabel, ShapeError, _label, box_partitions

WINDOW_LIMIT = 10**6  # most generators `enumerate_window` may list


def enumerate_window(ctx: Context, k: int) -> list[GeneratorLabel]:
    """Canonical labels of the W_k generators in graded lexicographic order.

    One generator per partition in the r x (d-r) box, twisted by det(S^v)^k;
    the set always has exactly C(d, r) elements. The twist adds a constant
    to every entry, so the graded-lex order of `box_partitions` carries over.
    Past WINDOW_LIMIT generators it raises `ShapeError` before listing any.
    """
    if (n := comb(ctx.d, ctx.r)) > WINDOW_LIMIT:
        raise ShapeError(f"W_{k} has C({ctx.d}, {ctx.r}) = {n:,} generators, "
                         f"over WINDOW_LIMIT={WINDOW_LIMIT:,}")
    labels = [_label(p, ctx.r, k) for p in box_partitions(ctx.box_rows, ctx.box_cols)]
    if len(labels) != n:
        raise ShapeError(f"W_{k} has {len(labels)} generators, not C({ctx.d}, {ctx.r})")
    return labels


def in_window(label: GeneratorLabel, k: int, ctx: Context) -> bool:
    """True iff the label's weight, untwisted by det^k, is a box partition. Past r parts:
    ShapeError; a det power that is not an int (1.0, Fraction(1)): TypeError."""
    parts, m = label.delta.pad(ctx.r), operator.index(label.det_power)
    return ctx.r == 0 or _in_box(parts, m, k, ctx)


def _in_box(parts: tuple[int, ...], m: int, k: int, ctx: Context) -> bool:
    """The window rule on a raw label (parts, m) of at most r parts, r > 0: its weight
    parts + m, untwisted by det^k, lies in the r x (d-r) box."""
    last = (parts[-1] if len(parts) == ctx.r else 0) + m
    return last >= k and (parts[0] if parts else 0) + m - k <= ctx.box_cols
