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
                pairs = entries.items() if isinstance(entries, dict) else entries
                for w, m in pairs:
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


def _box_weight(weights: dict, shape, r: int, dual: bool) -> tuple[tuple[int, ...], int]:
    """`shape` padded to length r, dualised if `dual`, `_translated`; kept in `weights`."""
    shape = shape if isinstance(shape, Partition) else Partition(tuple(shape))
    key = (shape.parts, r, dual)
    hit = weights.get(key)
    if hit is None:
        hit = weights[key] = _translated(dual_weight(shape.pad(r)) if dual else shape.pad(r))
    return hit


def _lr_class(r: int, u, v, memo=None, steps=None):
    """`memo` entry (a dict the caller owns) of the translation class of two
    `_translated` length-r weights, keyed by the sorted pair: (their LR terms
    at r rows, {(d, offset): Bott hits}). `steps` goes to `lr_multiply`."""
    pair = (u, v) if u <= v else (v, u)
    memo = {} if memo is None else memo
    if pair not in memo:
        memo[pair] = (lr_multiply(Partition(pair[0]), Partition(pair[1]), r, steps).terms, {})
    return memo[pair]


def hom_bundle_cohomology(
    ctx: Context, gamma, delta, memo=None, steps=None, weights=None
) -> CohomologyTable:
    """Cohomology of S^(gamma) (x) S^v(delta) = Hom(S^v(gamma), S^v(delta)).

    `weights`, `memo` and `steps` are dicts the caller owns. `weights` keeps
    each shape's translated weight; `_lr_class` gives the GL(r) LR terms of
    the pair's translation class (shared through `memo` and `steps`). The
    dotted Weyl action, with zero Q^v weight, runs on the terms less the
    offset once per class and offset; the hits (degree, weight, mult) stay in
    the memo entry under (d, offset), and each call builds a fresh table.
    The Q block of the rho-shifted vector is the run -r..-(d-1), so a term lam
    vanishes, with no `_dotted_weyl` call, iff some row i has r <= i - lam_i < d.
    """
    r, d = ctx.r, ctx.d
    weights = {} if weights is None else weights
    (u, nu), (v, nv) = _box_weight(weights, gamma, r, True), _box_weight(weights, delta, r, False)
    terms, by_offset = _lr_class(r, u, v, memo, steps)
    total = nu + nv
    hits = by_offset.get((d, total))
    if hits is None:
        tail = (0,) * (d - r)  # the Q^v weight
        hits = by_offset[(d, total)] = []  # one memo may serve several d at this r
        for key, mult in terms.items():
            lam = tuple(x - total for x in key + (0,) * (r - len(key)))
            if not any(r <= i - x < d for i, x in enumerate(lam)):
                hits.append((*_dotted_weyl(lam, tail), mult))
    out = CohomologyTable()
    for hit in hits:
        out.add(*hit)
    return out


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
