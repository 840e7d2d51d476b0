"""Running one `thinlie` job in a child process and checking its verdict."""

import hashlib
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

# Lines that carry the verdict: check and overall lines, the dimension line of
# verify, the diamond timeline of analyze ("degree:type") and the graded-basis
# lines of switch.  The parameter echo ("params ..." or "case=...") is left
# out, so that dropping an echoed field does not count as a changed verdict.
_VERDICT_LINE = re.compile(
    r"^(check \S+: |overall: |dimension \d+$|\d+:|\(-?\d+,-?\d+,-?\d+\) \| )")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class JobResult:
    argv: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str


def require_program():
    if not (SRC / "thinlie" / "cli.py").is_file():
        raise BenchError(f"no thinlie sources under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # one set-iteration order, so traced counts repeat
    return env


def run_child(prefix: list, argv: list, pause=None, every_s: float = 0.0) -> JobResult:
    """Launch prefix + argv, collect stdout, and time it from launch to exit.

    With `pause`, the child is stopped (SIGSTOP) after every `every_s`
    seconds of running, pause() is called while it stands still, and the
    child is continued; wall_s leaves out the time it was stopped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(prefix + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    stopped_s = 0.0
    try:
        if pause is not None:
            stopped_s = _run_with_pauses(proc.pid, pause, every_s)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stdout.close()
    wall = time.perf_counter() - t0 - stopped_s
    return JobResult(argv, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, proc.returncode,
                     b"".join(chunks).decode("utf-8", "replace"))


def _run_with_pauses(pid: int, pause, every_s: float) -> float:
    """Stop pid every `every_s` s of running to call pause(); return seconds stopped.

    Returns once pid has exited; it is left for the caller to reap.
    """
    stopped_s = 0.0
    fd = os.pidfd_open(pid)  # readable once pid has exited
    try:
        while not select.select([fd], [], [], every_s)[0]:
            os.kill(pid, signal.SIGSTOP)
            info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if info.si_code != os.CLD_STOPPED:
                break  # exited before the stop took hold
            t0 = time.perf_counter()
            try:
                pause()
            finally:
                stopped_s += time.perf_counter() - t0
                os.kill(pid, signal.SIGCONT)
    finally:
        os.close(fd)
    return stopped_s


def run_job(argv: list, pause=None, every_s: float = 0.0) -> JobResult:
    """One untraced CLI job, as a user would start it (see run_child for pause)."""
    return run_child([sys.executable, "-m", "thinlie.cli"], argv, pause, every_s)


def verdict_lines(stdout: str) -> list:
    return [ln for ln in stdout.splitlines() if _VERDICT_LINE.match(ln)]


def verdict_digest(stdout: str) -> str:
    body = "\n".join(verdict_lines(stdout)) + "\n"
    return hashlib.sha256(body.encode()).hexdigest()


def job_key(argv: list) -> str:
    return " ".join(argv)


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as f:
        return json.load(f)


def verdict_ok(result: JobResult, references: dict) -> bool:
    """Exit code and verdict digest both equal the frozen reference."""
    ref = references.get(job_key(result.argv))
    if ref is None:
        raise BenchError(f"no frozen reference for {job_key(result.argv)!r}")
    return (result.exit_code == ref["exit_code"]
            and verdict_digest(result.stdout) == ref["digest"])
