"""Young diagrams, GL(r) weights, canonically named window generators, and the
one home of the exact rules other modules share: `_dotted_weyl`, Bott's
dotted Weyl action, which also straightens Schur weights; `_translated`, the
translation the LR products take; `_canonical`, the label rule every generator
is named by; `_bareiss`, the integer determinant (cofactor expansion up to 3 x 3,
fraction-free elimination beyond), which leaves its argument as it found it; `_refuse_non_ints`,
which `Context` and the `verify` suites apply to their ints.

`Partition(...)`, `check_weight` and `canonicalize` validate their input; `Partition._trusted`,
`_label` and `_canonical` trust it, so they take only the library's own tuples.

Values here are immutable and usable as dict keys; every operation is a pure
function, so everything is safe to share across threads.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import ge, index
from typing import NamedTuple, Sequence


class ShapeError(ValueError):
    """Raised when a partition, weight, or label violates a shape bound."""


def _strip(key: tuple[int, ...]) -> tuple[int, ...]:
    n = len(key)
    while n and key[n - 1] == 0:
        n -= 1
    return key[:n]


def _refuse_non_ints(**counts) -> None:
    """ShapeError naming the first of `counts` that is not an int, a bool included."""
    for name, value in counts.items():
        if type(value) is not int:
            raise ShapeError(f"{name} must be an int, not {value!r}")


class Partition:
    """A Young diagram: weakly decreasing parts, trailing zeros stripped.

    Not a tuple: `len` and iteration run over the parts. Equality, hash and
    repr are those of a frozen record with the one field `parts`.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if (w := check_weight(parts)) and w[-1] < 0:
            raise ShapeError(f"negative part in partition: {list(w)}")
        object.__setattr__(self, "parts", _strip(w))

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Build from stripped, weakly decreasing non-negative ints, unchecked."""
        self = cls.__new__(cls)
        _set_parts(self, parts)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Partition, (self.parts,)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    def row(self, i: int) -> int:
        """Length of the i-th row, 1-indexed; zero beyond the diagram."""
        if i < 1:
            raise ShapeError("row index is 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def col(self, i: int) -> int:
        """Length of the i-th column, 1-indexed: the number of parts >= i."""
        if i < 1:
            raise ShapeError("column index is 1-based")
        return sum(1 for p in self.parts if p >= i)

    def conjugate(self) -> "Partition":
        """Transpose the diagram, exchanging rows and columns."""
        if not self.parts:
            return Partition()
        return Partition(tuple(self.col(i) for i in range(1, self.parts[0] + 1)))

    def fits_box(self, rows: int, cols: int) -> bool:
        """True iff there are at most `rows` parts, each at most `cols`."""
        if rows < 0 or cols < 0:
            raise ShapeError("box dimensions must be non-negative")
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)

    def pad(self, n: int) -> tuple[int, ...]:
        """The parts as a length-n weight, zero-padded on the right."""
        if len(self.parts) > n:
            raise ShapeError(f"partition {list(self.parts)} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))


_set_parts = Partition.parts.__set__  # the slot's own setter, past `__setattr__`: `_trusted`'s


def check_weight(entries, length: int | None = None) -> tuple[int, ...]:
    """Validate a weakly decreasing integer weight and return it as a tuple."""
    w = tuple(map(int, map(index, entries)))  # a float or Fraction raises TypeError
    if not all(map(ge, w, w[1:])):
        raise ShapeError(f"weight not weakly decreasing: {list(w)}")
    if length is not None and len(w) != length:
        raise ShapeError(f"weight {list(w)} should have length {length}")
    return w


def dual_weight(w) -> tuple[int, ...]:
    """Highest weight of the dual representation: negate and reverse."""
    return tuple(-x for x in reversed(tuple(w)))


def _translated(w) -> tuple[tuple[int, ...], int]:
    """The weight plus n * (1,...,1), where n = -w[-1] makes it end in 0, and n
    (its offset)."""
    n = -w[-1] if w else 0
    return tuple(x + n for x in w), n


def _dotted_weyl(s, q) -> tuple[int, tuple[int, ...]] | None:
    """(degree, dominant weight) of the dotted Weyl action on the weight s + q,
    or None when the rho-shifted vector has a repeated entry.

    The S^v weight s is dominant, so its block stays strictly decreasing after
    the rho shift: its entry i has i entries of its own block above it in the
    sorted vector, and each other entry above it comes from q and is one
    inversion. So the degree is read off positions, with no pairwise count.
    """
    v = [x - i for i, x in enumerate(s + q)]  # (s + q) + rho, less the constant len(v) - 1
    if len(set(v)) < len(v):
        return None
    ordered = sorted(v, reverse=True)
    position = {x: k for k, x in enumerate(ordered)}
    r = len(s)
    inversions = sum(position[x] for x in v[:r]) - r * (r - 1) // 2
    return inversions, tuple(x + k for k, x in enumerate(ordered))


def _bareiss(a: Sequence[Sequence[int]]) -> int:
    """Integer determinant of the square matrix `a`, rows given as lists or tuples.

    Up to 3 x 3, exact cofactor expansion along the first row. From 4 x 4, Bareiss's
    fraction-free elimination on a copy of the rows: every division is exact (Bareiss
    1968, Math. Comp. 22), so entries stay integers throughout. `a` is not consumed.
    """
    n = len(a)
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    if n == 2:
        (a0, a1), (b0, b1) = a
        return a0 * b1 - a1 * b0
    if n < 2:
        return a[0][0] if n else 1
    a = [list(row) for row in a]
    sign, prev = 1, 1
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


def graded_lex_key(w):
    """Sort key ordering weights by total size, then lexicographically."""
    w = tuple(w)
    return (sum(w), w)


class _ContextFields(NamedTuple):
    d: int
    r: int


class Context(_ContextFields):
    """Global parameters: dim V = d and the tautological rank r, 0 <= r <= d.

    Derived data: window generators live in the r x (d-r) box, and staircase
    resolutions have d-r+1 steps.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` validates too

    def __new__(cls, d: int, r: int):
        _refuse_non_ints(d=d, r=r)
        if d < 1:
            raise ShapeError(f"d must be a positive integer, got {d}")
        if not 0 <= r <= d:
            raise ShapeError(f"need 0 <= r <= d, got r={r}, d={d}")
        return super().__new__(cls, d, r)

    @property
    def box_rows(self) -> int:
        return self.r

    @property
    def box_cols(self) -> int:
        return self.d - self.r

    @property
    def staircase_length(self) -> int:
        """Number of staircase steps, d - r + 1."""
        return self.d - self.r + 1


class GeneratorLabel(NamedTuple):
    """Canonical name for the bundle S^v(delta) (x) det(S^v)^det_power.

    Canonical form pins the r-th entry of delta to zero, pushing the rest into
    det_power, so every bundle has exactly one name (see `canonicalize`).
    """

    delta: Partition = Partition()
    det_power: int = 0

    def weight(self, r: int) -> tuple[int, ...]:
        """Full highest weight on S^v: delta padded to length r plus det_power."""
        return tuple(p + self.det_power for p in self.delta.pad(r))


def canonicalize(w, det_power: int = 0) -> GeneratorLabel:
    """Fold the last weight entry into the determinant power.

    (w, m) and (w + c*(1,...,1), m - c) name the same bundle for every integer
    c; the canonical representative has last weight entry zero. Idempotent on
    its own output. For the empty weight (r = 0) the label is just ((), m). A det_power
    that is not an integer (`operator.index`): TypeError.
    """
    q, c = _canonical(check_weight(w), len(w))
    return GeneratorLabel(Partition._trusted(q), index(det_power) + c)


def _canonical(parts: tuple[int, ...], r: int) -> tuple[tuple[int, ...], int]:
    """The label rule's one body: (q, c), q + c = trusted parts padded to r, q's r-th entry 0;
    q is the parts less their last entry, cut where it first occurs (fewer than r: c = 0)."""
    if len(parts) < r or not parts:
        return parts, 0
    last = parts[-1]
    return tuple([x - last for x in parts[:parts.index(last)]]), last


def _label(p: Partition, r: int, m: int) -> GeneratorLabel:
    """`canonicalize(p.pad(r), m)`, unchecked, for a trusted p with at most r parts."""
    q, c = _canonical(p.parts, r)
    return GeneratorLabel(Partition._trusted(q) if c else p, m + c)


def box_partitions(rows: int, cols: int) -> list[Partition]:
    """All partitions in a rows x cols box, in graded lexicographic order. Each shape is drawn
    from cols down to 0, so it is weakly decreasing and non-negative: trusted once stripped."""
    if rows < 0 or cols < 0:
        raise ShapeError("box dimensions must be non-negative")
    shapes = combinations_with_replacement(range(cols, -1, -1), rows)
    return [Partition._trusted(_strip(s)) for s in sorted(shapes, key=graded_lex_key)]


def parse_int_tuple(text: str) -> tuple[int, ...]:
    """Parse comma-separated integers; an empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ShapeError(f"cannot parse integer list from {text!r}") from exc
