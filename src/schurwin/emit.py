"""Text, JSON, and LaTeX emitters with byte-deterministic output.

Generators are displayed through their full weight on S^v; the all-zero
weight prints as O. Complexes print as a brace-and-arrow chain with the
degree span appended, skeletons as a per-degree listing. JSON objects are built
from JSON-native values, so `json_dumps` converts nothing. No other library
module is imported at run time, so printing loads nothing a command skips.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .partitions import Context, GeneratorLabel
    from .shifts import KMatrix, Term, TermComplex
    from .staircase import StaircaseData


def format_weight(w) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def _bundle_text(w, ext_power=0) -> str:
    """O or S∨(w), then ⊗ ∧^s V for s = ext_power > 0."""
    s = "S∨" + format_weight(w) if any(w) else "O"
    return s + f" ⊗ ∧^{ext_power} V" if ext_power else s


def _bundle_latex(w, ext_power=0) -> str:
    s = rf"S^{{\vee {format_weight(w)}}}" if any(w) else r"\mathcal{O}"
    return s + rf" \otimes \wedge^{{{ext_power}}} V" if ext_power else s


def format_generator(ctx: Context, label: GeneratorLabel) -> str:
    return _bundle_text(label.weight(ctx.r))


def format_term(ctx: Context, term: Term) -> str:
    s = _bundle_text(term.label.weight(ctx.r), term.ext_power)
    if term.copies != 1:
        s = f"{term.copies}·" + s
    return s


def format_complex(ctx: Context, tc: TermComplex) -> str:
    if tc.is_single_generator():
        return format_generator(ctx, tc.terms[0].label)
    lo, hi = tc.degree_span
    by_degree: dict[int, list[Term]] = {}
    for t in tc.terms:
        by_degree.setdefault(t.degree, []).append(t)
    if tc.honest and all(len(v) == 1 for v in by_degree.values()):
        chain = " → ".join(
            format_term(ctx, by_degree[d][0]) for d in range(lo, hi + 1)
        )
        return "{ " + chain + " }" + f"  (degrees {lo}..{hi})"
    groups = [
        f"[{d}] " + " + ".join(format_term(ctx, t) for t in by_degree[d])
        for d in range(lo, hi + 1)
    ]
    return "skeleton{ " + " ; ".join(groups) + " }"


def windows_text(ctx: Context, labels) -> str:
    return "".join(format_generator(ctx, g) + "\n" for g in labels)


def windows_json_obj(ctx: Context, k: int, labels):
    return {
        "d": ctx.d,
        "r": ctx.r,
        "k": k,
        "generators": [
            {
                "delta": list(g.delta.parts),
                "detPower": g.det_power,
                "weight": list(g.weight(ctx.r)),
            }
            for g in labels
        ],
    }


def windows_latex(ctx: Context, labels) -> str:
    return ", \\; ".join(latex_generator(ctx, g) for g in labels) + "\n"


def staircase_text(data: StaircaseData) -> str:
    lines = []
    for k, st in enumerate(data.steps, 1):
        lines.append(
            f"delta_{k} = {format_weight(st.delta.pad(data.ctx.r))}  s_{k} = {st.s}"
        )
    return "\n".join(lines) + "\n"


def staircase_json_obj(data: StaircaseData):
    return {
        "d": data.ctx.d,
        "r": data.ctx.r,
        "base": list(data.base.parts),
        "steps": [
            {
                "delta": list(st.delta.parts),
                "s": st.s,
                "extDim": comb(data.ctx.d, st.s),
            }
            for st in data.steps
        ],
    }


def staircase_latex(data: StaircaseData) -> str:
    lines = []
    for k, st in enumerate(data.steps, 1):
        w = ",".join(str(x) for x in st.delta.pad(data.ctx.r))
        lines.append(rf"\delta_{{{k}}} = ({w}), \quad s_{{{k}}} = {st.s} \\")
    return "\n".join(lines) + "\n"


def sequence_text(ctx: Context, terms) -> str:
    bits = ["0"] + [_bundle_text(t.delta.pad(ctx.r), t.ext_power) for t in terms] + ["0"]
    return " → ".join(bits) + "\n"


def sequence_json_obj(ctx: Context, terms):
    return {
        "d": ctx.d,
        "r": ctx.r,
        "base": list(terms[-1].delta.parts),  # a resolution sequence ends in its base
        "terms": [
            {
                "delta": list(t.delta.parts),
                "extPower": t.ext_power,
                "extDim": t.ext_dim,
            }
            for t in terms
        ],
    }


def sequence_latex(ctx: Context, terms) -> str:
    bits = ["0"] + [_bundle_latex(t.delta.pad(ctx.r), t.ext_power) for t in terms] + ["0"]
    return " \\rightarrow ".join(bits) + "\n"


def latex_generator(ctx: Context, label: GeneratorLabel) -> str:
    return _bundle_latex(label.weight(ctx.r))


def latex_term(ctx: Context, term: Term) -> str:
    s = _bundle_latex(term.label.weight(ctx.r), term.ext_power)
    if term.copies != 1:
        s = rf"{term.copies} \cdot " + s
    return s


def complex_latex(ctx: Context, tc: TermComplex) -> str:
    if tc.is_single_generator():
        return latex_generator(ctx, tc.terms[0].label) + "\n"
    ordered = sorted(tc.terms, key=lambda t: t.degree)
    chain = " \\rightarrow ".join(latex_term(ctx, t) for t in ordered)
    return r"\left\{ " + chain + r" \right\}" + "\n"


def term_complex_json_obj(ctx: Context, tc: TermComplex):
    return {
        "honest": tc.honest,
        "terms": [
            {
                "deg": t.degree,
                "weight": list(t.label.delta.parts),
                "detPower": t.label.det_power,
                "extPower": t.ext_power,
                "copies": t.copies,
            }
            for t in tc.terms
        ],
    }


def matrix_text(mat: KMatrix) -> str:
    ctx = mat.ctx
    rows = mat.row_basis()
    cols = mat.col_basis()
    lines = [
        f"rows: W_{mat.from_k} basis; columns: W_{mat.to_k} basis",
        "columns: " + " ".join(format_generator(ctx, g) for g in cols),
    ]
    for g, row in zip(rows, mat.entries):
        lines.append(
            format_generator(ctx, g) + ": " + " ".join(str(x) for x in row)
        )
    lines.append(f"det = {mat.determinant()}")
    return "\n".join(lines) + "\n"


def matrix_csv(mat: KMatrix) -> str:
    return "".join(",".join(str(x) for x in row) + "\n" for row in mat.entries)


def matrix_json_obj(mat: KMatrix):
    ctx = mat.ctx
    return {
        "d": ctx.d,
        "r": ctx.r,
        "from": mat.from_k,
        "to": mat.to_k,
        "rowBasis": [list(g.weight(ctx.r)) for g in mat.row_basis()],
        "colBasis": [list(g.weight(ctx.r)) for g in mat.col_basis()],
        "entries": [list(row) for row in mat.entries],
        "determinant": mat.determinant(),
    }


def json_dumps(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
