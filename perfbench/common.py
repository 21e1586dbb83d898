"""Paths, output digests and child processes shared by the benchmark scripts.

Nothing here imports schurwin: `run.py` uses this module in the parent
process, which only starts children and never loads the library itself.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"


# Time of probe() on the reference machine (2-core x86-64 container, Python
# 3.11.7, when its cores ran at full speed). See probe().
PROBE_REF_S = 0.0065


def probe() -> float:
    """Time a fixed piece of pure-Python work: the machine's speed right now.

    The benchmark's machines are shared, and their speed drifts by 30-60%
    over tens of seconds, CPU time and wall time alike. So the harness runs
    this probe before and after every job and reports each latency scaled to
    the reference speed: latency * PROBE_REF_S / (mean of the two probes).
    The probe mixes the kinds of work schurwin does (tuple keys in dicts,
    Fraction sums, nested integer loops) with the kernel work a process
    start does (page faults on fresh memory, file metadata lookups). It calls
    no schurwin code, but in a worker it shares the process with the
    library's heap; the garbage collector is off while it runs, so a
    collection of that heap cannot land inside the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            block = bytearray(1 << 20)
            for i in range(0, len(block), 4096):
                block[i] = 1
        for _ in range(200):
            os.stat(__file__)
        table: dict = {}
        acc = Fraction(0)
        for i in range(1, 6000):
            key = (i % 17, i % 5, i & 7)
            table[key] = table.get(key, 0) + i * i
            if i % 16 == 0:
                acc += Fraction(i, i % 97 + 1)
        rows = [[(i * j) % 11 for j in range(40)] for i in range(40)]
        sum(rows[i][k] * rows[k][j] for i in range(40) for j in range(40) for k in range(0, 40, 3))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """A measured time scaled to the reference speed."""
    return seconds * PROBE_REF_S / ((probe_before + probe_after) / 2)


def pin_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU: the probes
    then time the core the jobs run on. Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def library_present() -> bool:
    return (SRC / "schurwin" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for every child: the checkout's library first on the path,
    UTF-8 output whatever the locale, and nothing from the caller's PYTHON*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONHASHSEED"] = "0"
    return env


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path=EXPECTED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest_problem(key: str, canon: bytes, expected: dict) -> str | None:
    """Why a job's canonical output does not match its reference, or None."""
    want = expected.get(key)
    if want is None:
        return "no reference digest"
    if digest(canon) != want:
        return "output digest differs from the reference"
    return None


def cli_canonical(stdout: bytes, code: int) -> bytes:
    return stdout + b"\nexit=%d\n" % code


def cli_problem(argv, stdout: bytes, code: int, expect_exit: int) -> str | None:
    """Invariants of one CLI call: its exit code, and PASS for a verify run."""
    if code != expect_exit:
        return f"exit code {code}, expected {expect_exit}"
    if argv[0] == "verify":
        verdict = b'"pass":true' if "json" in argv else b"\nresult: PASS\n"
        if verdict not in stdout:
            return "verify did not report a pass"
    return None


def job_problem(key: str, invariant_problem, canon: bytes, expected: dict) -> str | None:
    """The first thing wrong with a job's output, prefixed by its key."""
    problem = invariant_problem or digest_problem(key, canon, expected)
    return f"{key}: {problem}" if problem else None


def loadavg():
    """The three load averages, read only, or None where /proc is absent."""
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def peak_rss_mb() -> float:
    """This process's own peak RSS in MB.

    VmHWM belongs to the address space, which exec replaces. ru_maxrss does
    not: a child's ru_maxrss also counts the parent's RSS at the moment of
    exec, so it would report the larger of the two processes."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


# `python -m schurwin.cli` as users run it, plus an exit hook that writes the
# process's own peak RSS (VmHWM, in kB) to the inherited file descriptor {fd}
CLI_LAUNCH = """\
import atexit, os, runpy
def _peak():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    os.write({fd}, kb.encode())
atexit.register(_peak)
runpy.run_module("schurwin.cli", run_name="__main__", alter_sys=True)
"""


def run_child(argv, timeout: float, quiet: bool = False, pass_fds=()):
    """Run one child to completion; returns (stdout, exit code, start, end)
    with start and end on the shared monotonic clock.

    The child is reaped with a blocking waitpid, so its end time is exact; a
    child that outlives `timeout` is killed and reported with a negative
    exit code. `quiet` discards the child's stderr instead of passing it on.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL if quiet else None,
        pass_fds=pass_fds,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status = os.waitpid(proc.pid, 0)
        end = time.perf_counter()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, start, end


def run_cli(argv, timeout: float):
    """One `schurwin` CLI call as a subprocess: (stdout, exit code, start,
    end, the child's own peak RSS in MB or 0.0 if it did not report it)."""
    read_fd, write_fd = os.pipe()
    try:
        out, code, start, end = run_child(
            [sys.executable, "-c", CLI_LAUNCH.format(fd=write_fd), *argv],
            timeout,
            quiet=True,
            pass_fds=(write_fd,),
        )
        os.close(write_fd)
        write_fd = None
        with os.fdopen(read_fd, "rb") as fh:
            read_fd = None
            kb = fh.read()
    finally:
        for fd in (read_fd, write_fd):
            if fd is not None:
                os.close(fd)
    return out, code, start, end, int(kb) / 1024.0 if kb else 0.0


def python_argv(*args) -> list[str]:
    return [sys.executable, *map(str, args)]
