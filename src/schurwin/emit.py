"""Text, JSON, and LaTeX emitters with byte-deterministic output.

Each output kind has one renderer; what text and LaTeX spell differently lives
in the notation tables `TEXT` (the default) and `LATEX`. Generators are shown
through their full weight on S^v, the all-zero weight as the trivial bundle.
Text complexes print as a brace-and-arrow chain with the degree span appended,
skeletons as a per-degree listing. JSON objects are built from JSON-native
values, so `json_dumps` converts nothing. No other library module is imported
at run time, so printing loads nothing a command skips.
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


# everything plain text and LaTeX spell differently; `step` is the line of one
# staircase step, filled with its index k, padded diagram w and wedge exponent s
TEXT = {
    "bundle": "S∨{}", "trivial": "O", "wedge": " ⊗ ∧^{} V", "copies": "{}·",
    "arrow": " → ", "sep": "\n", "step": "delta_{k} = {w}  s_{k} = {s}",
}
LATEX = {
    "bundle": r"S^{{\vee {}}}", "trivial": r"\mathcal{O}",
    "wedge": r" \otimes \wedge^{{{}}} V", "copies": r"{} \cdot ",
    "arrow": r" \rightarrow ", "sep": r", \; ",
    "step": r"\delta_{{{k}}} = {w}, \quad s_{{{k}}} = {s} \\",
}


def _bundle(w, ext_power, notation=TEXT) -> str:
    """The trivial bundle or S∨(w), then ⊗ ∧^s V for s = ext_power > 0."""
    s = notation["bundle"].format(format_weight(w)) if any(w) else notation["trivial"]
    return s + notation["wedge"].format(ext_power) if ext_power else s


def format_generator(ctx: Context, label: GeneratorLabel, notation=TEXT) -> str:
    return _bundle(label.weight(ctx.r), 0, notation)


def format_term(ctx: Context, term: Term, notation=TEXT) -> str:
    s = _bundle(term.label.weight(ctx.r), term.ext_power, notation)
    return s if term.copies == 1 else notation["copies"].format(term.copies) + s


def format_complex(ctx: Context, tc: TermComplex) -> str:
    if tc.is_single_generator():
        return format_generator(ctx, tc.terms[0].label)
    lo, hi = tc.degree_span
    by_degree: dict[int, list[Term]] = {}
    for t in tc.terms:
        by_degree.setdefault(t.degree, []).append(t)
    if tc.honest and all(len(v) == 1 for v in by_degree.values()):
        chain = TEXT["arrow"].join(format_term(ctx, by_degree[d][0]) for d in range(lo, hi + 1))
        return "{ " + chain + " }" + f"  (degrees {lo}..{hi})"
    groups = [
        f"[{d}] " + " + ".join(format_term(ctx, t) for t in by_degree[d])
        for d in range(lo, hi + 1)
    ]
    return "skeleton{ " + " ; ".join(groups) + " }"


def complex_latex(ctx: Context, tc: TermComplex) -> str:
    """The complex as one LaTeX chain in degree order; LaTeX has no skeleton form."""
    if tc.is_single_generator():
        return format_generator(ctx, tc.terms[0].label, LATEX) + "\n"
    ordered = sorted(tc.terms, key=lambda t: t.degree)
    chain = LATEX["arrow"].join(format_term(ctx, t, LATEX) for t in ordered)
    return r"\left\{ " + chain + r" \right\}" + "\n"


def windows_text(ctx: Context, labels, notation=TEXT) -> str:
    return notation["sep"].join(format_generator(ctx, g, notation) for g in labels) + "\n"


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


def staircase_text(data: StaircaseData, notation=TEXT) -> str:
    r, step = data.ctx.r, notation["step"]
    lines = (step.format(k=k, w=format_weight(st.delta.pad(r)), s=st.s)
             for k, st in enumerate(data.steps, 1))
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


def sequence_text(ctx: Context, terms, notation=TEXT) -> str:
    bits = [_bundle(t.delta.pad(ctx.r), t.ext_power, notation) for t in terms]
    return notation["arrow"].join(["0", *bits, "0"]) + "\n"


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
    lines = [
        f"rows: W_{mat.from_k} basis; columns: W_{mat.to_k} basis",
        "columns: " + " ".join(format_generator(ctx, g) for g in mat.col_basis()),
    ]
    for g, row in zip(mat.row_basis(), mat.entries):
        lines.append(format_generator(ctx, g) + ": " + " ".join(str(x) for x in row))
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
