"""Borel-Weil-Bott cohomology of irreducible homogeneous bundles.

A bundle on the Grassmannian is named by its highest weights on S^v and Q^v.
The dotted Weyl action on the concatenated weight decides everything: if the
rho-shifted vector has a repeated entry all cohomology vanishes, otherwise a
single degree survives (the inversion count), carrying one GL(d) irreducible
reported as a dominant weight on V^v.

The convention (rho = (d-1, ..., 0), output on V^v) is pinned down by the
projective-line tests in the suite, not chosen for its own sake; any
convention passing those is equivalent for our purposes.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub
from typing import NamedTuple

from .partitions import (
    Context, Partition, ShapeError, _dotted_weyl, _strip, _translated, check_weight, dual_weight
)
from .symfunc import SchurExpansion, dimension_gl, lr_multiply


class _HomogeneousWeightFields(NamedTuple):
    s_part: tuple[int, ...]
    q_part: tuple[int, ...]


class HomogeneousWeight(_HomogeneousWeightFields):
    """Highest weights (on S^v, on Q^v) of an irreducible homogeneous bundle."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, s_part, q_part):
        return super().__new__(cls, check_weight(s_part), check_weight(q_part))


class CohomologyTable:
    """Map degree -> {dominant GL(d) weight on V^v: multiplicity}."""

    def __init__(self, groups=None):
        self.groups: dict[int, dict[tuple[int, ...], int]] = {}
        if groups:
            for deg, entries in groups.items():
                for w, m in entries.items():
                    self.add(deg, tuple(w), m)

    def add(self, degree: int, weight: tuple[int, ...], mult: int = 1):
        if mult == 0:
            return
        row = self.groups.setdefault(degree, {})
        row[weight] = row.get(weight, 0) + mult
        if row[weight] == 0:
            del row[weight]
        if not row:
            del self.groups[degree]

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.groups))

    def dimension(self, degree: int, d: int) -> int:
        """Total dimension of the cohomology in one degree."""
        row = self.groups.get(degree, {})
        return sum(m * dimension_gl(w, d) for w, m in row.items())

    def is_zero(self) -> bool:
        return not self.groups

    def __eq__(self, other):
        return isinstance(other, CohomologyTable) and self.groups == other.groups

    def __repr__(self):
        return f"CohomologyTable({self.groups!r})"

    def to_json_obj(self):
        return {
            str(deg): [
                {"weight": list(w), "mult": m} for w, m in sorted(row.items())
            ]
            for deg, row in sorted(self.groups.items())
        }


def bwb(ctx: Context, hw: HomogeneousWeight) -> CohomologyTable:
    """All cohomology of one irreducible bundle by the dotted Weyl action.

    Concatenate the S^v and Q^v weights, add rho = (d-1, ..., 0); a repeated
    entry kills everything, otherwise sort strictly decreasing, count the
    inversions ell, subtract rho, and report H^ell = that dominant weight.
    """
    if len(hw.s_part) != ctx.r or len(hw.q_part) != ctx.d - ctx.r:
        raise ShapeError(
            f"weight shaped ({len(hw.s_part)}, {len(hw.q_part)}), "
            f"context needs ({ctx.r}, {ctx.d - ctx.r})"
        )
    table = CohomologyTable()
    hit = _dotted_weyl(hw.s_part, hw.q_part)
    if hit is not None:
        table.add(*hit)
    return table


def _box_weight(weights: dict, shape, r: int, dual: bool) -> tuple[Partition, int]:
    """`shape` padded to r, dualised if `dual`, `_translated`: (Partition, offset), in `weights`."""
    shape = shape if isinstance(shape, Partition) else Partition(tuple(shape))
    key = (shape.parts, r, dual)
    hit = weights.get(key)
    if hit is None:
        u, n = _translated(dual_weight(shape.pad(r)) if dual else shape.pad(r))
        hit = weights[key] = Partition(u), n
    return hit


def _class_key(u, v):
    """The key of the translation class of two `_translated` weights' parts: the sorted pair."""
    return (u, v) if u <= v else (v, u)


def _lr_class(r: int, u: Partition, v: Partition, memo=None, steps=None):
    """`memo` entry (a dict the caller owns, keyed by the `_class_key` of the parts) of the
    translation class of two `_translated` length-r weights as Partitions: its LR terms at r
    rows as (a, mult), a_i = i - key_i strictly increasing for the key padded to r. It depends
    on r alone. `steps` goes to `lr_multiply`, which takes the pair in key order."""
    pair = _class_key(u.parts, v.parts)
    memo = {} if memo is None else memo
    if pair not in memo:
        if pair[0] != u.parts:
            u, v = v, u
        terms = lr_multiply(u, v, r, steps).terms
        zeros = (0,) * r
        memo[pair] = [(tuple(map(sub, range(r), key + zeros[len(key):])), m)
                      for key, m in terms.items()]
    return memo[pair]


def hom_bundle_cohomology(
    ctx: Context, gamma, delta, memo=None, steps=None, weights=None
) -> CohomologyTable:
    """Cohomology of S^(gamma) (x) S^v(delta) = Hom(S^v(gamma), S^v(delta)).

    `weights`, `memo` and `steps` are dicts the caller owns. `weights` keeps
    each shape's translated weight; `_lr_class` gives the GL(r) LR terms of
    the pair's translation class (shared through `memo` and `steps`). Bott's
    rule with zero Q^v weight is closed form: at total offset t a term lam = key - t
    has rho-shifted S entries -(a_i + t) around the Q run -r..-(d-1), so it survives
    iff k = bisect_left(a, r - t) is r or a_k + t >= d, in degree (d - r)(r - k) with
    weight (lam_0..lam_{k-1}, (k - r)^(d-r), lam_k + d - r..lam_{r-1} + d - r), added
    to a fresh table.
    """
    r, d = ctx.r, ctx.d
    weights = {} if weights is None else weights
    (u, nu), (v, nv) = _box_weight(weights, gamma, r, True), _box_weight(weights, delta, r, False)
    t = nu + nv
    q, low, high, out = d - r, r - t, d - t, CohomologyTable()
    for a, mult in _lr_class(r, u, v, memo, steps):
        k = bisect_left(a, low)
        if k == r or a[k] >= high:
            lam = [i - x - t for i, x in enumerate(a)]
            out.add(q * (r - k), (*lam[:k], *(k - r,) * q, *(x + q for x in lam[k:])), mult)
    return out


def hom_sweep(ctx: Context, shapes):
    """Yield (i, j, table) for the first pair (shapes[i], shapes[j]) in pair order of each key
    of Hom(S^v(shapes[i]), S^v(shapes[j])), table its `hom_bundle_cohomology`. A pair's table
    depends only on its key: the `_class_key` of its translated weights and their total offset.
    Each shape is translated once, each key decided once, class by class, and the class memo
    is cleared after each class."""
    memo, steps, weights, r = {}, {}, {}, ctx.r  # `steps`: the LR strip-DP transitions
    duals = [_box_weight(weights, s, r, True) for s in shapes]
    plains = [_box_weight(weights, s, r, False) for s in shapes]
    first: dict = {}  # class -> {total offset: (i, j) of its first pair}
    for i, (u, nu) in enumerate(duals):
        for j, (v, nv) in enumerate(plains):
            key = _class_key(u.parts, v.parts)
            (first.get(key) or first.setdefault(key, {})).setdefault(nu + nv, (i, j))
    for offsets in first.values():
        for i, j in offsets.values():
            yield i, j, hom_bundle_cohomology(ctx, shapes[i], shapes[j], memo, steps, weights)
        memo.clear()


def euler_character(ctx: Context, hw: HomogeneousWeight) -> SchurExpansion:
    """Alternating sum of the cohomology as a virtual GL(d) character."""
    groups = bwb(ctx, hw).groups  # one dominant weight at most: stripped, it is a key
    terms = {_strip(w): (-1) ** deg * m for deg, row in groups.items() for w, m in row.items()}
    return SchurExpansion._trusted(terms, ctx.d)


def serre_dual(ctx: Context, hw: HomogeneousWeight) -> HomogeneousWeight:
    """Weight of E^v (x) K_Gr; Serre pairs H^i(E) with H^{r(d-r)-i} of this."""
    s = tuple(x - ctx.box_cols for x in dual_weight(hw.s_part))
    q = tuple(x + ctx.r for x in dual_weight(hw.q_part))
    return HomogeneousWeight(s, q)
