"""The library's own partitions skip validation, and nothing else does.

`Partition._trusted` and `partitions._label` build staircase rows, box
partitions and window labels without re-checking tuples the library has just
computed. These tests
check that every such value equals the validated one, that building a unit-step
image validates only the caller's generator, and that the two unchecked
constructors are reached only from the places that build their own input.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

import schurwin
from schurwin import partitions
from schurwin.partitions import (
    Context,
    Partition,
    _label,
    box_partitions,
    canonicalize,
)
from schurwin.shifts import (
    Term, TermComplex, general_shift, shift_down_generator, shift_up_generator
)
from schurwin.staircase import admissible_bases, base_from_top, staircase_diagrams
from schurwin.windows import enumerate_window, in_window

PACKAGE = Path(schurwin.__file__).parent


def assert_valid(p):
    assert type(p.parts) is tuple and all(type(x) is int for x in p.parts), p
    assert p.parts == Partition(p.parts).parts, p


def test_staircase_rows_equal_validated_partitions():
    steps = 0
    for d in range(1, 11):
        for r in range(1, d + 1):
            ctx = Context(d, r)
            for base in admissible_bases(ctx):
                for st in staircase_diagrams(ctx, base).steps:
                    assert_valid(st.delta)
                    # a staircase property: every row has exactly r positive parts
                    assert len(st.delta) == r and st.delta.parts[-1] > 0, (d, r, base, st)
                    steps += 1
    # every admissible base has d - r + 1 steps
    assert steps == sum(
        len(admissible_bases(Context(d, r))) * (d - r + 1)
        for d in range(1, 11) for r in range(1, d + 1)
    )


def test_box_partitions_equal_validated_partitions(monkeypatch):
    calls = count_checks(monkeypatch)
    boxes = {(rows, cols): box_partitions(rows, cols) for rows in range(6) for cols in range(6)}
    assert calls == {"check_weight": 0}
    for (rows, cols), shapes in boxes.items():
        assert shapes == [Partition(p.parts) for p in shapes], (rows, cols)
        for p in shapes:
            assert_valid(p)
            assert p.fits_box(rows, cols), (rows, cols, p)
    assert boxes[0, 3] == boxes[3, 0] == [Partition()]


def test_base_from_top_equals_validated_partition():
    tops = 0
    for d in range(1, 11):
        for r in range(1, d + 1):
            ctx = Context(d, r)
            for g in enumerate_window(ctx, 1):
                if in_window(g, 0, ctx):
                    continue
                w = g.weight(r)
                base = base_from_top(ctx, Partition(w))
                assert_valid(base)
                assert base == Partition(tuple(x - 1 for x in w[1:])), (d, r, g)
                assert staircase_diagrams(ctx, base).top == Partition(w)
                tops += 1
    # W_1 less W_0 is the box partitions with a full first row: C(d - 1, r - 1)
    assert tops == sum(2 ** (d - 1) for d in range(1, 11))


def test_label_equals_canonicalize():
    labels = 0
    for d in range(1, 11):
        for r in range(d + 1):
            for p, m in product(box_partitions(r, d - r + 1), range(-3, 4)):
                got = _label(p, r, m)
                assert got == canonicalize(p.pad(r), m), (r, p, m)
                assert_valid(got.delta)
                labels += 1
    assert labels > 20_000


def reference_unit_step(ctx, g, from_k, to_k, keep_det):
    """The unit-step image built from validated partitions, each label named
    by `canonicalize` on its padded weight."""
    r, down = ctx.r, to_k < from_k
    twist = to_k if down else from_k
    w = tuple(x - twist for x in g.weight(r))
    if in_window(g, to_k, ctx):
        return TermComplex((Term(0, g),))
    if down:
        base = Partition(tuple(x - 1 for x in w[1:]))
    else:
        base = Partition(w)
    steps = [(Partition(st.delta.parts), st.s) for st in staircase_diagrams(ctx, base).steps]
    if down:
        terms = [(delta, s) for delta, s in reversed(steps[:-1])] + [(base, 0)]
        first = 0
    else:
        terms = [(delta, 0 if s == ctx.d and not keep_det else s) for delta, s in reversed(steps)]
        first = -(len(steps) - 1)
    return TermComplex(tuple(
        Term(first + i, canonicalize(delta.pad(r), twist), s) for i, (delta, s) in enumerate(terms)
    ))


def test_unit_step_images_match_the_canonicalize_reference():
    # `general_shift` over one step twists each level itself, as the reference does
    images = 0
    for d in range(1, 9):
        for r in range(1, d + 1):
            ctx = Context(d, r)
            for k in range(-3, 4):
                for g in enumerate_window(ctx, k):
                    for to_k, keep_det in product((k - 1, k + 1), (False, True)):
                        got = general_shift(ctx, k, to_k, g, keep_det)
                        ref = reference_unit_step(ctx, g, k, to_k, keep_det)
                        assert got == ref, (d, r, g, k, to_k, keep_det)
                        images += 1
    assert images == 7 * 4 * sum(len(enumerate_window(Context(d, r), 0))
                                 for d in range(1, 9) for r in range(1, d + 1))


def count_checks(monkeypatch):
    """Count `check_weight` calls; `Partition(...)` validates through it too."""
    calls, honest = {"check_weight": 0}, partitions.check_weight

    def counted(*args, **kwargs):
        calls["check_weight"] += 1
        return honest(*args, **kwargs)

    monkeypatch.setattr(partitions, "check_weight", counted)
    return calls


@pytest.mark.parametrize("down", [True, False])
def test_out_of_window_image_validates_only_the_callers_generator(monkeypatch, down):
    ctx = Context(8, 4)
    source = enumerate_window(ctx, 1 if down else 0)
    g = next(g for g in source if not in_window(g, 0 if down else 1, ctx))
    calls = count_checks(monkeypatch)
    image = shift_down_generator(ctx, g) if down else shift_up_generator(ctx, g)
    assert len(image.terms) == ctx.staircase_length
    assert calls == {"check_weight": 0}  # `in_window` alone checks g


class Uses(ast.NodeVisitor):
    """(enclosing function, what) for each use of `Partition._trusted`, `_label`, `_canonical`,
    `_set_parts` or a slot's `__set__`."""

    def __init__(self, source):
        self.source, self.scope, self.found = source, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == "__set__":  # a slot's setter, past `__setattr__`
            self.found.append((self.scope[-1], ast.get_source_segment(self.source, node)))
        # SchurExpansion._trusted is the other unchecked constructor; it takes
        # expansion terms, not partitions
        if node.attr == "_trusted" and getattr(node.value, "id", None) != "SchurExpansion":
            self.found.append((self.scope[-1], ast.get_source_segment(self.source, node)))
        self.generic_visit(node)

    def visit_Name(self, node):
        # `_set_parts`, `Partition.parts.__set__` bound once, is `_trusted`'s setter
        if node.id in ("_label", "_canonical", "_set_parts") and isinstance(node.ctx, ast.Load):
            self.found.append((self.scope[-1], node.id))


def test_unchecked_constructors_are_reached_only_from_library_built_tuples():
    # trust never reaches user input: the unchecked constructors run only on
    # staircase rows, a top's shortened tail, box partitions, a checked
    # generator's weight, a `check_weight`-checked weight less its last entry
    # (`canonicalize`), and a skeleton's nodes, which are canonical staircase
    # rows or the checked generator's own partition
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        uses = Uses(path.read_text())
        uses.visit(ast.parse(uses.source, str(path)))
        found += [(path.name, *use) for use in uses.found]
    found.sort()
    assert found == [
        ("partitions.py", "<module>", "Partition.parts.__set__"),
        ("partitions.py", "_label", "Partition._trusted"),
        ("partitions.py", "_label", "_canonical"),
        ("partitions.py", "_trusted", "_set_parts"),
        ("partitions.py", "box_partitions", "Partition._trusted"),
        ("partitions.py", "canonicalize", "Partition._trusted"),
        ("partitions.py", "canonicalize", "_canonical"),
        ("shifts.py", "_image_rows", "Partition._trusted"),
        ("shifts.py", "_image_rows", "_canonical"),
        ("shifts.py", "general_shift", "Partition._trusted"),
        ("staircase.py", "base_from_top", "Partition._trusted"),
        ("staircase.py", "staircase_diagrams", "Partition._trusted"),
        ("windows.py", "enumerate_window", "_label"),
    ]


@pytest.mark.parametrize("call", [
    lambda: Partition((1, 2)),
    lambda: Partition((2, -1)),
    lambda: canonicalize((1, 2)),
    lambda: partitions.check_weight((0, 1)),
    lambda: staircase_diagrams(Context(7, 3), (1, 2)),
    lambda: base_from_top(Context(7, 3), (5, 6, 2)),
])
def test_public_inputs_are_still_checked(call):
    with pytest.raises(partitions.ShapeError, match="not weakly decreasing|negative part"):
        call()
