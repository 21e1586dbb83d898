"""Each exact rule has one body: generator labels come only from
`partitions._canonical`, and sample points are cleared only by
`symfunc._cleared`."""

import ast
from pathlib import Path

import schurwin
from schurwin import partitions, shifts
from schurwin.partitions import Context, canonicalize
from schurwin.shifts import shift_down_generator, shift_up_generator
from schurwin.windows import enumerate_window, in_window

PACKAGE = Path(schurwin.__file__).parent


def test_image_rows_name_every_row_by_canonical(monkeypatch):
    # every up and down unit-step image at d <= 8, up ones with and without
    # wedge^d V: one `_canonical` call per row, staircase rows and the down base alike
    honest_canonical, honest_rows, calls, images = shifts._canonical, shifts._image_rows, [], []

    def canonical(parts, r):
        calls.append(parts)
        return honest_canonical(parts, r)

    def image_rows(*args):
        del calls[:]
        rows = honest_rows(*args)
        assert len(calls) == len(rows), args
        assert [(q, c) for _, q, c, _ in rows] == [honest_canonical(p, args[0].r) for p in calls]
        images.append(args)
        return rows

    monkeypatch.setattr(shifts, "_canonical", canonical)
    monkeypatch.setattr(shifts, "_image_rows", image_rows)
    expected = 0
    for d in range(1, 9):
        for r in range(1, d + 1):
            ctx = Context(d, r)
            for g in enumerate_window(ctx, 1):
                if not in_window(g, 0, ctx):
                    shift_down_generator(ctx, g)
                    expected += 1
            for g in enumerate_window(ctx, 0):
                if not in_window(g, 1, ctx):
                    shift_up_generator(ctx, g)
                    shift_up_generator(ctx, g, keep_det=True)
                    expected += 2
    # W_1 less W_0 and W_0 less W_1 each hold C(d - 1, r - 1) generators
    assert len(images) == expected == 3 * sum(2 ** (d - 1) for d in range(1, 9))


def test_canonicalize_names_by_canonical_alone(monkeypatch):
    # `_translated` is the LR products' translation; no label goes through it
    def refuse(w):
        raise AssertionError(f"canonicalize translated {w}")

    monkeypatch.setattr(partitions, "_translated", refuse)
    assert canonicalize((3, 1, -2), 1) == canonicalize((5, 3, 0), -1)
    assert canonicalize((2, 2), 0).delta.parts == ()
    assert canonicalize((), 4).det_power == 4


def test_verify_clears_no_point_itself():
    # `symfunc._cleared` is the one body of point clearing: verify takes no lcm
    # and reads no denominator
    path = PACKAGE / "verify.py"
    tree = ast.parse(path.read_text(), str(path))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_cleared" in names
    assert "lcm" not in names | reads | used
    assert "denominator" not in reads
