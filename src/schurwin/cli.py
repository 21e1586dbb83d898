"""Command-line front-end: windows, staircase, shift, matrix, verify.

Each command imports the modules it uses when it runs, so a call loads only
what its command needs and `--version` loads nothing beyond argparse. Three
tables drive it: `_COMMANDS` builds the parser, `_SUITES` says which `verify`
function runs each suite and which flags it takes (a new suite is one row),
and `_RENDER` holds the renderers, keyed by (kind, format).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__

# verify suite -> (the `verify` function that runs it, the flags it takes);
# `_verify` refuses any other flag and passes these as keyword arguments
_SUITES = {
    "exactness": ("verify_localization", ("delta", "seed", "samples")),
    "euler": ("verify_euler", ("delta",)),
    "tilting": ("verify_tilting", ()),
    "relations": ("verify_relations", ()),
    "regression": ("verify_regression", ()),
}


def _windows(args, ctx):
    from .windows import enumerate_window

    return enumerate_window(ctx, args.k)


def _staircase(args, ctx):
    from .partitions import Partition, parse_int_tuple
    from .staircase import resolution_sequence, staircase_diagrams

    build = resolution_sequence if args.kind == "sequence" else staircase_diagrams
    return build(ctx, Partition(parse_int_tuple(args.delta)))


def _shift(args, ctx):
    from .partitions import ShapeError, canonicalize, parse_int_tuple
    from .shifts import general_shift

    weight = parse_int_tuple(args.gen)
    if len(weight) != ctx.r:
        raise ShapeError(f"generator weight needs exactly r={ctx.r} entries")
    g = canonicalize(weight)
    return general_shift(ctx, args.from_k, args.to_k, g, keep_det=args.keep_det)


def _matrix(args, ctx):
    from .shifts import k_matrix

    return k_matrix(ctx, args.from_k, args.to_k)


def _verify(args, ctx):
    from . import verify
    from .partitions import ShapeError, parse_int_tuple

    name, takes = _SUITES[args.suite]
    for flag in ("delta", "seed", "samples"):
        if getattr(args, flag) is not None and flag not in takes:
            only = " and ".join(s for s, (_, takers) in _SUITES.items() if flag in takers)
            verb = "do" if " and " in only else "does"
            raise ShapeError(f"verify {args.suite} takes no --{flag}; only {only} {verb}")
    kwargs = {flag: getattr(args, flag) for flag in takes if getattr(args, flag) is not None}
    if "delta" in kwargs:
        kwargs["delta"] = parse_int_tuple(kwargs["delta"])
    if "seed" in takes and args.seed is None and os.environ.get("SCHURWIN_SEED"):  # when set
        kwargs["seed"] = int(os.environ["SCHURWIN_SEED"])
    return getattr(verify, name)(ctx, **kwargs)


def _report_text(report, include_timing: bool) -> str:
    lines = [f"check: {report.check}"]
    params = " ".join(f"{k}={v}" for k, v in sorted(report.parameters.items()))
    lines.append(f"parameters: {params}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    if report.note:
        lines.append(f"note: {report.note}")
    if report.counterexample is not None:
        lines.append(f"counterexample: {report.counterexample}")
    if include_timing:
        lines.append(f"time: {report.timing:.3f}s")
    return "\n".join(lines) + "\n"


# (kind, format) -> render(emit, ctx, args, result): the text to print, or
# for json the object that `emit.json_dumps` prints
_RENDER = {
    ("windows", "text"): lambda e, ctx, a, labels: e.windows_text(ctx, labels),
    ("windows", "json"): lambda e, ctx, a, labels: e.windows_json_obj(ctx, a.k, labels),
    ("windows", "latex"): lambda e, ctx, a, labels: e.windows_text(ctx, labels, e.LATEX),
    ("staircase", "text"): lambda e, ctx, a, data: e.staircase_text(data),
    ("staircase", "json"): lambda e, ctx, a, data: e.staircase_json_obj(data),
    ("staircase", "latex"): lambda e, ctx, a, data: e.staircase_text(data, e.LATEX),
    ("sequence", "text"): lambda e, ctx, a, terms: e.sequence_text(ctx, terms),
    ("sequence", "json"): lambda e, ctx, a, terms: e.sequence_json_obj(ctx, terms),
    ("sequence", "latex"): lambda e, ctx, a, terms: e.sequence_text(ctx, terms, e.LATEX),
    ("shift", "text"): lambda e, ctx, a, tc: e.format_complex(ctx, tc) + "\n",
    ("shift", "json"): lambda e, ctx, a, tc: e.term_complex_json_obj(ctx, tc),
    ("shift", "latex"): lambda e, ctx, a, tc: e.complex_latex(ctx, tc),
    ("matrix", "text"): lambda e, ctx, a, mat: e.matrix_text(mat),
    ("matrix", "json"): lambda e, ctx, a, mat: e.matrix_json_obj(mat),
    ("matrix", "csv"): lambda e, ctx, a, mat: e.matrix_csv(mat),
    ("verify", "text"): lambda e, ctx, a, report: _report_text(report, a.timings),
    ("verify", "json"): lambda e, ctx, a, report: report.to_json_obj(include_timing=a.timings),
}


# a command argument is (flag, add_argument keywords); --format takes its
# choices from the formats _RENDER has for the command's kind
_FORMAT = ("--format", None)
_FROM_TO = (("--from", dict(dest="from_k", type=int, required=True)),
            ("--to", dict(dest="to_k", type=int, required=True)))
_GEN = (("--gen", dict(required=True, help="generator weight, comma-separated")),
        ("--keep-det", dict(action="store_true", help="retain wedge^d V factors")))

# command -> (help, runner, parser defaults, arguments after --d and --r);
# `kind`, which picks the renderers, defaults to the command's name
_COMMANDS = {
    "windows": ("list the W_k generator set", _windows, {},
                (("--k", dict(type=int, default=0)), _FORMAT)),
    "staircase": ("staircase diagrams or the exact sequence", _staircase, {}, (
        ("--delta", dict(required=True, help="base diagram, comma-separated")),
        ("--sequence", dict(dest="kind", action="store_const", const="sequence",
                            help="emit the exact sequence")),
        _FORMAT,
    )),
    "shift": ("window-shift action on one generator", _shift, {}, (*_FROM_TO, *_GEN, _FORMAT)),
    # the shift from W_+1 down to W_0 is the twist action on generators;
    # `twist` is a documented alias for that one step
    "twist": ("twist action on a W_+1 generator (shift from 1 to 0)", _shift,
              {"kind": "shift", "from_k": 1, "to_k": 0}, (*_GEN, _FORMAT)),
    "matrix": ("K-class change-of-basis matrix", _matrix, {}, (*_FROM_TO, _FORMAT)),
    "verify": ("run one verification suite", _verify, {}, (
        ("suite", dict(choices=tuple(_SUITES))),
        ("--delta", dict(help="restrict to one base diagram")),
        ("--seed", dict(type=int)), ("--samples", dict(type=int)),
        _FORMAT,
        ("--timings", dict(action="store_true", help="include timing in output")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurwin",
        description="Exact window, staircase, and shift combinatorics on Grassmannians",
    )
    parser.add_argument("--version", action="version", version=f"schurwin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, run, defaults, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(**{"run": run, "kind": name, **defaults})
        p.add_argument("--d", type=int, required=True, help="dimension of V")
        p.add_argument("--r", type=int, required=True, help="tautological rank")
        kind = p.get_default("kind")
        formats = {"choices": [f for k, f in _RENDER if k == kind], "default": "text"}
        for flag, options in arguments:
            p.add_argument(flag, **(formats if options is None else options))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help/--version
        return int(exc.code or 0)
    from . import emit
    from .partitions import Context

    try:
        ctx = Context(args.d, args.r)
        result = args.run(args, ctx)
        out = _RENDER[args.kind, args.format](emit, ctx, args, result)
        sys.stdout.write(emit.json_dumps(out) if args.format == "json" else out)
    except ValueError as exc:  # ShapeError is a ValueError
        sys.stderr.write(f"schurwin: {exc}\n")
        return 2
    return 1 if args.kind == "verify" and not result.passed else 0


if __name__ == "__main__":
    sys.exit(main())
