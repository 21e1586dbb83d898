import hashlib
import json
import re
import time
from pathlib import Path

import pytest

from schurwin.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_text_timings_adds_a_time_line(capsys):
    argv = ("verify", "euler", "--d", "3", "--r", "1")
    code, plain, _ = run(capsys, *argv)
    timed_code, timed, _ = run(capsys, *argv, "--timings")
    assert code == timed_code == 0
    last = timed.splitlines()[-1]
    assert re.fullmatch(r"time: \d+\.\d{3}s", last)
    assert timed == plain + last + "\n"


def test_staircase_text(capsys):
    code, out, err = run(
        capsys, "staircase", "--d", "7", "--r", "3", "--delta", "3,1", "--format", "text"
    )
    assert code == 0
    assert out == (
        "delta_1 = (3,1,1)  s_1 = 1\n"
        "delta_2 = (3,2,2)  s_2 = 3\n"
        "delta_3 = (3,3,2)  s_3 = 4\n"
        "delta_4 = (4,4,2)  s_4 = 6\n"
        "delta_5 = (5,4,2)  s_5 = 7\n"
    )


def test_staircase_sequence(capsys):
    code, out, _ = run(
        capsys, "staircase", "--d", "4", "--r", "2", "--delta", "2", "--sequence"
    )
    assert code == 0
    assert out == "0 → S∨(3,3) ⊗ ∧^4 V → S∨(2,2) ⊗ ∧^2 V → S∨(2,1) ⊗ ∧^1 V → S∨(2,0) → 0\n"


def test_windows_text(capsys):
    code, out, _ = run(capsys, "windows", "--d", "4", "--r", "2", "--k", "0")
    assert code == 0
    assert out.splitlines() == ["O", "S∨(1,0)", "S∨(1,1)", "S∨(2,0)", "S∨(2,1)", "S∨(2,2)"]


def test_windows_tall_box(capsys):
    code, out, _ = run(capsys, "windows", "--d", "1001", "--r", "1000")
    assert code == 0
    assert len(out.splitlines()) == 1001


def test_shift_rows(capsys):
    code, out, _ = run(
        capsys, "shift", "--d", "4", "--r", "2", "--from", "1", "--to", "0", "--gen", "3,3"
    )
    assert code == 0
    assert out == "{ S∨(2,2) ⊗ ∧^2 V → S∨(2,1) ⊗ ∧^1 V → S∨(2,0) }  (degrees 0..2)\n"
    code, out, _ = run(
        capsys, "shift", "--d", "4", "--r", "2", "--from", "1", "--to", "0", "--gen", "2,1"
    )
    assert out == "S∨(2,1)\n"


def test_twist_alias_matches_shift(capsys):
    _, via_shift, _ = run(
        capsys, "shift", "--d", "4", "--r", "2", "--from", "1", "--to", "0", "--gen", "3,1"
    )
    code, via_twist, _ = run(capsys, "twist", "--d", "4", "--r", "2", "--gen", "3,1")
    assert code == 0
    assert via_twist == via_shift
    assert via_twist == "{ S∨(2,1) ⊗ ∧^3 V → S∨(1,1) ⊗ ∧^2 V → O }  (degrees 0..2)\n"


def test_shift_keep_det(capsys):
    code, out, _ = run(
        capsys,
        "shift", "--d", "2", "--r", "1", "--from", "0", "--to", "1", "--gen", "0",
        "--keep-det",
    )
    assert code == 0
    assert out == "{ S∨(2) ⊗ ∧^2 V → S∨(1) ⊗ ∧^1 V }  (degrees -1..0)\n"


def test_matrix_formats(capsys):
    code, out, _ = run(
        capsys, "matrix", "--d", "2", "--r", "1", "--from", "1", "--to", "0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [[0, 1], [-1, 2]]
    assert doc["determinant"] == 1
    code, out, _ = run(
        capsys, "matrix", "--d", "2", "--r", "1", "--from", "1", "--to", "0",
        "--format", "csv",
    )
    assert out == "0,1\n-1,2\n"


def test_json_roundtrip_byte_identical(capsys):
    from schurwin.emit import json_dumps

    for argv in (
        ["windows", "--d", "4", "--r", "2", "--k", "1", "--format", "json"],
        ["staircase", "--d", "4", "--r", "2", "--delta", "1", "--format", "json"],
        ["staircase", "--d", "4", "--r", "2", "--delta", "1", "--sequence",
         "--format", "json"],
        ["shift", "--d", "4", "--r", "2", "--from", "1", "--to", "0", "--gen", "3,2",
         "--format", "json"],
        ["matrix", "--d", "4", "--r", "2", "--from", "1", "--to", "0",
         "--format", "json"],
        ["verify", "euler", "--d", "3", "--r", "1", "--format", "json"],
        ["twist", "--d", "4", "--r", "2", "--gen", "3,1", "--format", "json"],
        ["verify", "exactness", "--d", "4", "--r", "2", "--seed", "3", "--format", "json"],
        ["verify", "exactness", "--d", "4", "--r", "2", "--delta", "1", "--format", "json",
         "--timings"],
        ["verify", "tilting", "--d", "4", "--r", "2", "--format", "json"],
        ["verify", "relations", "--d", "4", "--r", "2", "--format", "json"],
        ["verify", "regression", "--d", "4", "--r", "2", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json_dumps(json.loads(out)) == out


def test_exactness_past_the_sample_limit_exits_2(capsys):
    from schurwin.verify import SAMPLE_LIMIT

    for r in ("1", "3"):
        code, out, err = run(capsys, "verify", "exactness", "--d", str(SAMPLE_LIMIT + 1),
                             "--r", r)
        assert (code, out) == (2, "")
        assert f"at most {SAMPLE_LIMIT} coordinates" in err


def test_windows_past_the_window_limit_exits_2(capsys):
    from schurwin.windows import WINDOW_LIMIT

    t0 = time.perf_counter()
    code, out, err = run(capsys, "windows", "--d", "40", "--r", "20")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert f"over WINDOW_LIMIT={WINDOW_LIMIT:,}" in err


def test_shift_past_the_skeleton_limit_exits_2(capsys):
    from schurwin.shifts import SKELETON_LIMIT

    t0 = time.perf_counter()
    code, out, err = run(capsys, "shift", "--d", "4", "--r", "2", "--from", "10", "--to", "-10",
                         "--gen=12,12")
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert f"over SKELETON_LIMIT={SKELETON_LIMIT:,} terms" in err


def test_matrix_and_relations_past_the_matrix_limit_exit_2(capsys, monkeypatch):
    from math import comb

    from schurwin import shifts
    from schurwin.windows import MATRIX_LIMIT

    # relations at (13,6), 1,716 generators, still run; (16,8) has 12,870 and
    # (20,10) 184,756, each n^2 dense entries a level
    assert comb(13, 6) <= MATRIX_LIMIT < comb(16, 8)
    steps = []
    monkeypatch.setattr(shifts, "_unit_step", lambda *args, **kw: steps.append(args))
    for argv in (("matrix", "--d", "16", "--r", "8", "--from", "1", "--to", "0"),
                 ("matrix", "--d", "20", "--r", "10", "--from", "1", "--to", "0"),
                 ("verify", "relations", "--d", "16", "--r", "8")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert f"over MATRIX_LIMIT={MATRIX_LIMIT:,}" in err
    assert steps == []


def test_tilting_and_euler_past_the_sweep_limit_exit_2(capsys):
    from math import comb

    from schurwin.verify import SWEEP_LIMIT

    # (11,5) tilting still runs; (12,6) lists 853,776 pairs. Euler counts bases
    # times d: (16,8) still runs, (17,8) has 19,448 bases times 17 = 330,616
    assert comb(11, 5) ** 2 <= SWEEP_LIMIT < comb(12, 6) ** 2
    assert comb(16, 7) * 16 <= SWEEP_LIMIT < comb(17, 7) * 17 and comb(17, 7) <= SWEEP_LIMIT
    for argv in (("tilting", "--d", "12", "--r", "6"), ("euler", "--d", "40", "--r", "20"),
                 ("euler", "--d", "17", "--r", "8")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert f"over SWEEP_LIMIT={SWEEP_LIMIT:,}" in err
    code, out, _ = run(capsys, "verify", "euler", "--d", "40", "--r", "20", "--delta", "1")
    assert code == 0 and "PASS" in out


def test_exactness_past_the_work_limit_exits_2(capsys):
    from schurwin.verify import WORK_LIMIT

    for argv in (("--d", "200", "--r", "3", "--delta", "1"),
                 ("--d", "4", "--r", "2", "--samples", "1000000000")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "exactness", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert f"over WORK_LIMIT={WORK_LIMIT:,}" in err


def test_identical_argv_identical_bytes(capsys):
    argv = ["verify", "exactness", "--d", "4", "--r", "2", "--seed", "9",
            "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "exactness", "--d", "3", "--r", "2")
    assert code == 0
    assert "result: PASS" in out
    # invalid input: delta violates the shape bounds
    code, _, err = run(
        capsys, "verify", "exactness", "--d", "3", "--r", "2", "--delta", "9"
    )
    assert code == 2
    assert "row bound" in err


def test_invalid_flags_exit_2(capsys):
    assert main(["staircase", "--d", "4", "--r", "2", "--delta", "x,y"]) == 2
    capsys.readouterr()
    assert main(["windows", "--d", "4", "--r", "7"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["shift", "--d", "4", "--r", "2", "--from", "1", "--to", "0",
                 "--gen", "3,2,1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["euler", "tilting", "relations", "regression"])
@pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--samples", "9"), ("--samples", "0")])
def test_verify_refuses_seed_and_samples_it_would_ignore(capsys, suite, flag, value):
    # only exactness samples points, so only exactness takes a seed or a count
    code, out, err = run(capsys, "verify", suite, "--d", "4", "--r", "2", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"schurwin: verify {suite} takes no {flag}; only exactness does\n"


def test_exactness_takes_seed_and_samples(capsys):
    base = ["verify", "exactness", "--d", "4", "--r", "2", "--format", "json"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert json.loads(out)["parameters"]["samples"] == 3
    code, out, _ = run(capsys, *base, "--seed", "5", "--samples", "2")
    assert code == 0
    assert json.loads(out)["parameters"] == {
        "d": 4, "r": 2, "samples": 2, "seed": 5, "deltas": "all admissible"
    }
    code, _, err = run(capsys, *base, "--samples", "0")
    assert code == 2
    assert "samples must be at least 1" in err


@pytest.mark.parametrize("suite", ["tilting", "relations", "regression"])
def test_verify_refuses_delta_it_would_ignore(capsys, suite):
    # only exactness and euler restrict to one base diagram
    code, out, err = run(capsys, "verify", suite, "--d", "4", "--r", "2", "--delta", "1")
    assert code == 2
    assert out == ""
    assert err == f"schurwin: verify {suite} takes no --delta; only exactness and euler do\n"
    code, _, _ = run(capsys, "verify", "euler", "--d", "4", "--r", "2", "--delta", "1")
    assert code == 0


# `schurwin [command] --help` at COLUMNS=80; argparse before Python 3.10
# headed the options "optional arguments:", which the test maps to this
HELP = {
    "": """\
usage: schurwin [-h] [--version]
                {windows,staircase,shift,twist,matrix,verify} ...

Exact window, staircase, and shift combinatorics on Grassmannians

positional arguments:
  {windows,staircase,shift,twist,matrix,verify}
    windows             list the W_k generator set
    staircase           staircase diagrams or the exact sequence
    shift               window-shift action on one generator
    twist               twist action on a W_+1 generator (shift from 1 to 0)
    matrix              K-class change-of-basis matrix
    verify              run one verification suite

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "windows": """\
usage: schurwin windows [-h] --d D --r R [--k K] [--format {text,json,latex}]

options:
  -h, --help            show this help message and exit
  --d D                 dimension of V
  --r R                 tautological rank
  --k K
  --format {text,json,latex}
""",
    "staircase": """\
usage: schurwin staircase [-h] --d D --r R --delta DELTA [--sequence]
                          [--format {text,json,latex}]

options:
  -h, --help            show this help message and exit
  --d D                 dimension of V
  --r R                 tautological rank
  --delta DELTA         base diagram, comma-separated
  --sequence            emit the exact sequence
  --format {text,json,latex}
""",
    "shift": """\
usage: schurwin shift [-h] --d D --r R --from FROM_K --to TO_K --gen GEN
                      [--keep-det] [--format {text,json,latex}]

options:
  -h, --help            show this help message and exit
  --d D                 dimension of V
  --r R                 tautological rank
  --from FROM_K
  --to TO_K
  --gen GEN             generator weight, comma-separated
  --keep-det            retain wedge^d V factors
  --format {text,json,latex}
""",
    "twist": """\
usage: schurwin twist [-h] --d D --r R --gen GEN [--keep-det]
                      [--format {text,json,latex}]

options:
  -h, --help            show this help message and exit
  --d D                 dimension of V
  --r R                 tautological rank
  --gen GEN             generator weight, comma-separated
  --keep-det            retain wedge^d V factors
  --format {text,json,latex}
""",
    "matrix": """\
usage: schurwin matrix [-h] --d D --r R --from FROM_K --to TO_K
                       [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --d D                 dimension of V
  --r R                 tautological rank
  --from FROM_K
  --to TO_K
  --format {text,json,csv}
""",
    "verify": """\
usage: schurwin verify [-h] --d D --r R [--delta DELTA] [--seed SEED]
                       [--samples SAMPLES] [--format {text,json}] [--timings]
                       {exactness,euler,tilting,relations,regression}

positional arguments:
  {exactness,euler,tilting,relations,regression}

options:
  -h, --help            show this help message and exit
  --d D                 dimension of V
  --r R                 tautological rank
  --delta DELTA         restrict to one base diagram
  --seed SEED
  --samples SAMPLES
  --format {text,json}
  --timings             include timing in output
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    assert out.replace("\noptional arguments:\n", "\noptions:\n") == HELP[command]


def test_suite_table_matches_verify():
    # every suite names a `verify` function that takes each flag it is given
    import inspect

    from schurwin import verify
    from schurwin.cli import _SUITES

    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for suite, (name, flags) in _SUITES.items():
        params = inspect.signature(getattr(verify, name)).parameters
        for flag in flags:
            assert flag in params and params[flag].kind in keyword, (suite, flag)


def _matrix_argvs():
    """Every command in every format at three (d, r), errors included; only
    argv that argparse accepts, so all the text comes from schurwin."""
    for d, r in ((4, 2), (5, 2), (4, 0)):
        dr = ["--d", str(d), "--r", str(r)]
        for fmt in ("text", "json", "latex"):
            for k in ("-1", "0", "1"):
                yield ["windows", *dr, "--k", k, "--format", fmt]
            for delta in ("", "1", "2,1", "9"):
                yield ["staircase", *dr, "--delta", delta, "--format", fmt]
                yield ["staircase", *dr, "--delta", delta, "--sequence", "--format", fmt]
            for gen in ("", "3,1", "2,2", "3,2,1"):
                yield ["shift", *dr, "--from", "2", "--to", "-1", "--gen", gen, "--format", fmt]
                yield ["twist", *dr, "--gen", gen, "--keep-det", "--format", fmt]
        for fmt in ("text", "json", "csv"):
            for a, b in (("1", "0"), ("-1", "1")):
                yield ["matrix", *dr, "--from", a, "--to", b, "--format", fmt]
        for fmt in ("text", "json"):
            for suite in ("exactness", "euler", "tilting", "relations", "regression"):
                for extra in ([], ["--delta", "1"], ["--seed", "2", "--samples", "1"]):
                    yield ["verify", suite, *dr, *extra, "--format", fmt]


def test_output_matrix_digest(capsys):
    # one SHA-256 over (argv, stdout, stderr, exit code) of each call, so any
    # change to what a command prints or returns shows here
    argvs = list(_matrix_argvs())
    assert len(argvs) == 279
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, out, err, code], ensure_ascii=False).encode() + b"\n")
    assert digest.hexdigest() == "61c9743b4507f3acda471b1ea14616091d123c445a01010433c2c5e0c7f22f78"


def test_version_flag(capsys):
    # the version lives in pyproject.toml and in `schurwin.__version__`: they must agree
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text(encoding="utf-8").split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE).group(1)
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == f"schurwin {version}\n"


@pytest.mark.parametrize("argv, env, kwargs", [
    ((), None, {}), (("--seed", "7"), None, {"seed": 7}), ((), "17", {"seed": 17}),
    (("--seed", "7"), "17", {"seed": 7}), (("--samples", "2"), None, {"samples": 2}),
    (("--delta", "1"), None, {"delta": (1,)}),
])
def test_exactness_passes_only_what_the_user_set(capsys, monkeypatch, argv, env, kwargs):
    # the CLI restates none of `verify_localization`'s defaults
    import schurwin.verify
    from schurwin.verify import VerificationReport

    got = []

    def record(ctx, **kw):
        got.append(kw)
        return VerificationReport("localization", {}, passed=True)

    monkeypatch.setattr(schurwin.verify, "verify_localization", record)
    if env is None:
        monkeypatch.delenv("SCHURWIN_SEED", raising=False)
    else:
        monkeypatch.setenv("SCHURWIN_SEED", env)
    assert main(["verify", "exactness", "--d", "3", "--r", "1", *argv]) == 0
    capsys.readouterr()
    assert got == [kwargs]


def test_seed_env_fallback(capsys, monkeypatch):
    argv = ["verify", "exactness", "--d", "3", "--r", "1", "--format", "json"]
    monkeypatch.setenv("SCHURWIN_SEED", "17")
    _, via_env, _ = run(capsys, *argv)
    monkeypatch.delenv("SCHURWIN_SEED")
    _, via_flag, _ = run(capsys, *argv, "--seed", "17")
    assert via_env == via_flag
    assert json.loads(via_env)["parameters"]["seed"] == 17


def test_latex_output(capsys):
    code, out, _ = run(
        capsys, "staircase", "--d", "4", "--r", "2", "--delta", "1", "--format", "latex"
    )
    assert code == 0
    assert r"\delta_{1} = (1,1), \quad s_{1} = 1" in out
    code, out, _ = run(
        capsys, "shift", "--d", "4", "--r", "2", "--from", "1", "--to", "0",
        "--gen", "3,1", "--format", "latex",
    )
    assert out == (
        r"\left\{ S^{\vee (2,1)} \otimes \wedge^{3} V \rightarrow "
        r"S^{\vee (1,1)} \otimes \wedge^{2} V \rightarrow \mathcal{O} \right\}" + "\n"
    )
    code, out, _ = run(capsys, "windows", "--d", "3", "--r", "1", "--format", "latex")
    assert (code, out) == (0, r"\mathcal{O}, \; S^{\vee (1)}, \; S^{\vee (2)}" + "\n")
    code, out, _ = run(
        capsys, "staircase", "--d", "4", "--r", "2", "--delta", "1", "--sequence",
        "--format", "latex",
    )
    assert code == 0
    assert out == (
        r"0 \rightarrow S^{\vee (3,2)} \otimes \wedge^{4} V \rightarrow "
        r"S^{\vee (2,2)} \otimes \wedge^{3} V \rightarrow "
        r"S^{\vee (1,1)} \otimes \wedge^{1} V \rightarrow S^{\vee (1,0)} \rightarrow 0" + "\n"
    )


def test_verify_failure_maps_to_exit_1(capsys, monkeypatch):
    import schurwin.verify
    from schurwin.verify import VerificationReport

    def failing(ctx, delta=None, samples=3, seed=0):
        return VerificationReport(
            "localization", {"d": ctx.d, "r": ctx.r}, passed=False,
            counterexample={"delta": [1]}, note="stubbed failure",
        )

    monkeypatch.setattr(schurwin.verify, "verify_localization", failing)
    code = main(["verify", "exactness", "--d", "3", "--r", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    assert "counterexample" in out


def test_verify_regression_cli(capsys):
    code, out, _ = run(capsys, "verify", "regression", "--d", "4", "--r", "2")
    assert code == 0
    assert "result: PASS" in out
    code, _, err = run(capsys, "verify", "regression", "--d", "5", "--r", "4")
    assert code == 2
    assert "no golden data" in err
