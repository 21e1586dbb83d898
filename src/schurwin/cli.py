"""Command-line front-end: windows, staircase, shift, matrix, verify.

Each command imports the modules it uses when it runs, so a call loads only
what its command needs and `--version` loads nothing beyond argparse. Output
goes through one table of renderers keyed by (kind, format).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__

# verify suite -> the `verify` function that runs it
_SUITES = {
    "exactness": "verify_localization",
    "euler": "verify_euler",
    "tilting": "verify_tilting",
    "relations": "verify_relations",
    "regression": "verify_regression",
}


def __getattr__(name):
    # the suite functions resolve through this module at call time, so a
    # caller can replace one here without `verify` being imported up front
    if name in _SUITES.values():
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    from .partitions import ShapeError, parse_int_tuple

    if args.delta is not None and args.suite not in ("exactness", "euler"):
        raise ShapeError(f"verify {args.suite} takes no --delta; only exactness and euler do")
    for flag, value in (("--seed", args.seed), ("--samples", args.samples)):
        if value is not None and args.suite != "exactness":
            raise ShapeError(f"verify {args.suite} takes no {flag}; only exactness does")
    name = _SUITES[args.suite]
    run = globals()[name] if name in globals() else __getattr__(name)
    delta = parse_int_tuple(args.delta) if args.delta is not None else None
    if args.suite == "exactness":
        seed = args.seed if args.seed is not None else int(os.environ.get("SCHURWIN_SEED") or 0)
        samples = 3 if args.samples is None else args.samples
        return run(ctx, delta=delta, samples=samples, seed=seed)
    if args.suite == "euler":
        return run(ctx, delta=delta)
    return run(ctx)


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
    ("windows", "latex"): lambda e, ctx, a, labels: e.windows_latex(ctx, labels),
    ("staircase", "text"): lambda e, ctx, a, data: e.staircase_text(data),
    ("staircase", "json"): lambda e, ctx, a, data: e.staircase_json_obj(data),
    ("staircase", "latex"): lambda e, ctx, a, data: e.staircase_latex(data),
    ("sequence", "text"): lambda e, ctx, a, terms: e.sequence_text(ctx, terms),
    # a resolution sequence ends in its base, S^v(base) with no wedge factor
    ("sequence", "json"): lambda e, ctx, a, terms: e.sequence_json_obj(
        ctx, terms[-1].delta, terms
    ),
    ("sequence", "latex"): lambda e, ctx, a, terms: e.sequence_latex(ctx, terms),
    ("shift", "text"): lambda e, ctx, a, tc: e.format_complex(ctx, tc) + "\n",
    ("shift", "json"): lambda e, ctx, a, tc: e.term_complex_json_obj(ctx, tc),
    ("shift", "latex"): lambda e, ctx, a, tc: e.complex_latex(ctx, tc),
    ("matrix", "text"): lambda e, ctx, a, mat: e.matrix_text(mat),
    ("matrix", "json"): lambda e, ctx, a, mat: e.matrix_json_obj(mat),
    ("matrix", "csv"): lambda e, ctx, a, mat: e.matrix_csv(mat),
    ("verify", "text"): lambda e, ctx, a, report: _report_text(report, a.timings),
    ("verify", "json"): lambda e, ctx, a, report: report.to_json_obj(include_timing=a.timings),
}


def _add_command(sub, name, run, help, **defaults):
    """A subcommand taking --d and --r; `kind` defaults to its name."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(**{"run": run, "kind": name, **defaults})
    p.add_argument("--d", type=int, required=True, help="dimension of V")
    p.add_argument("--r", type=int, required=True, help="tautological rank")
    return p


def _add_format(p):
    kind = p.get_default("kind")
    p.add_argument("--format", choices=[f for k, f in _RENDER if k == kind], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurwin",
        description="Exact window, staircase, and shift combinatorics on Grassmannians",
    )
    parser.add_argument("--version", action="version", version=f"schurwin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "windows", _windows, "list the W_k generator set")
    p.add_argument("--k", type=int, default=0)
    _add_format(p)

    p = _add_command(sub, "staircase", _staircase, "staircase diagrams or the exact sequence")
    p.add_argument("--delta", required=True, help="base diagram, comma-separated")
    p.add_argument(
        "--sequence", dest="kind", action="store_const", const="sequence",
        help="emit the exact sequence",
    )
    _add_format(p)

    p = _add_command(sub, "shift", _shift, "window-shift action on one generator")
    p.add_argument("--from", dest="from_k", type=int, required=True)
    p.add_argument("--to", dest="to_k", type=int, required=True)
    p.add_argument("--gen", required=True, help="generator weight, comma-separated")
    p.add_argument("--keep-det", action="store_true", help="retain wedge^d V factors")
    _add_format(p)

    # the shift from W_+1 down to W_0 is the twist action on generators;
    # `twist` is a documented alias for that one step
    p = _add_command(
        sub, "twist", _shift, "twist action on a W_+1 generator (shift from 1 to 0)",
        kind="shift", from_k=1, to_k=0,
    )
    p.add_argument("--gen", required=True, help="generator weight, comma-separated")
    p.add_argument("--keep-det", action="store_true", help="retain wedge^d V factors")
    _add_format(p)

    p = _add_command(sub, "matrix", _matrix, "K-class change-of-basis matrix")
    p.add_argument("--from", dest="from_k", type=int, required=True)
    p.add_argument("--to", dest="to_k", type=int, required=True)
    _add_format(p)

    p = _add_command(sub, "verify", _verify, "run one verification suite")
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--delta", default=None, help="restrict to one base diagram")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    _add_format(p)
    p.add_argument("--timings", action="store_true", help="include timing in output")
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
