"""Grade-restriction windows: generator sets W_k and membership tests."""

from __future__ import annotations

from math import comb

from .partitions import (
    Context,
    GeneratorLabel,
    ShapeError,
    box_partitions,
    canonicalize,
    graded_lex_key,
)


def enumerate_window(ctx: Context, k: int) -> list[GeneratorLabel]:
    """Canonical labels of the W_k generators in graded lexicographic order.

    One generator per partition in the r x (d-r) box, twisted by det(S^v)^k;
    the set always has exactly C(d, r) elements.
    """
    labels = [
        canonicalize(p.pad(ctx.r), k)
        for p in box_partitions(ctx.box_rows, ctx.box_cols)
    ]
    labels.sort(key=lambda g: graded_lex_key(g.weight(ctx.r)))
    if len(labels) != comb(ctx.d, ctx.r):
        raise ShapeError(f"W_{k} has {len(labels)} generators, not C({ctx.d}, {ctx.r})")
    return labels


def in_window(label: GeneratorLabel, k: int, ctx: Context) -> bool:
    """True iff the label's weight, untwisted by det^k, is a box partition."""
    w = label.weight(ctx.r)
    if ctx.r == 0:
        return True
    return w[-1] - k >= 0 and w[0] - k <= ctx.box_cols
