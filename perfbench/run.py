"""thinlie benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is taken from the src/ directory beside
perfbench/.  Workloads and metrics are listed in BENCHMARK.json.

--trace 0  Closed loop with one client: time set-up in fresh processes,
           and start the workload's `thinlie` job in a fresh child process,
           one at a time, for about --seconds (at least one job).
           Reports the medians of the end-to-end metrics, times scaled to
           the reference host speed measured during the jobs (calibrate.py).
--trace 1  One untraced job and one traced job (thinlie.cli.main called in
           a child process with the benchmark's wrappers installed).
           Reports the per-layer metrics of the traced job and the tracing
           overhead.

Every job's exit code and verdict are checked against the references frozen
in references.json.  The benchmark and every child it starts run on one
CPU.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 2 and no result
when the benchmark cannot run (for instance, no thinlie sources).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
from job import (BENCH_DIR, ROOT, BenchError, JobResult, child_env, load_references,
                 require_program, run_child, run_job, verdict_ok)
from workloads import WORKLOADS

SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
PROBES = 2  # set-up samples before the first job and after each job
SAMPLE_EVERY_S = 1.5  # a job is stopped for one host-speed sample per this much running


def probe(*args: str) -> dict:
    """Run child.py with args and return the JSON it prints last."""
    res = run_child([sys.executable, str(BENCH_DIR / "child.py")], list(args))
    if res.exit_code != 0:
        raise BenchError(f"child.py {' '.join(args)} exited {res.exit_code}")
    return json.loads(res.stdout.splitlines()[-1])


def pin_to_one_cpu():
    """Keep this process and every child it starts on one CPU of those allowed.

    A job and the host-speed samples taken while it is stopped then run on
    the same CPU, so the samples see the speed the job sees.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """A calibration child (`child.py calibrate`) that runs one kernel sample per call."""

    def __init__(self, workload: str):
        self.samples: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), "calibrate", workload],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("calibration child exited early")
        self.samples.append(float(line))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def end_to_end(workload: str, seed: int, seconds: float, refs: dict):
    """Closed loop, one client: jobs back to back for about `seconds`.

    A job (with the probes that follow it) starts only if half a cycle of
    median length fits before the deadline, so a run lasts `seconds` give
    or take half a cycle; the first job always runs.  Set-up is probed
    before the first job and after every job.  Host speed is sampled while
    each job is stopped, once per SAMPLE_EVERY_S of its running.  Each job's
    times are scaled by the median speed of the samples taken during it,
    set-up by the median over the run (see calibrate.py); the metrics are
    medians of the scaled values.
    """
    wl = WORKLOADS[workload]
    start = time.perf_counter()
    probe("setup", workload, str(seed))  # untimed: the first import compiles bytecode
    setups: list[float] = []

    def probes():
        setups.extend(probe("setup", workload, str(seed))["setup_s"] for _ in range(PROBES))

    probes()
    jobs: list[JobResult] = []
    speeds: list[float] = []  # host speed during each job
    cycles: list[float] = []
    with HostSpeed(workload) as host:
        while not jobs or (time.perf_counter() - start + statistics.median(cycles) / 2
                           <= seconds):
            t0 = time.perf_counter()
            first = len(host.samples)
            jobs.append(run_job(wl.argv(seed, len(jobs)), host, SAMPLE_EVERY_S))
            if len(host.samples) == first:  # ended within SAMPLE_EVERY_S, as a broken job may
                host()
            speeds.append(calibrate.REFERENCE_S / statistics.median(host.samples[first:]))
            probes()
            cycles.append(time.perf_counter() - t0)
    failed = sum(not verdict_ok(j, refs) for j in jobs)
    run_speed = calibrate.REFERENCE_S / statistics.median(host.samples)
    raw = {
        "verdict_s": statistics.median(j.wall_s for j in jobs),
        "cpu_s": statistics.median(j.cpu_s for j in jobs),
        "setup_s": statistics.median(setups),
    }
    for j, speed in zip(jobs, speeds):
        print(f"job {' '.join(j.argv)}: exit {j.exit_code}, "
              f"{j.wall_s:.3f} s wall, {j.cpu_s:.3f} s cpu, {j.rss_mb:.1f} MB, "
              f"host speed {speed:.4f}")
    print("kernel s " + " ".join(f"{k:.4f}" for k in host.samples))
    print(f"host speed {run_speed:.4f} of reference; unscaled "
          + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    metrics = {
        "verdict_s": statistics.median(j.wall_s * v for j, v in zip(jobs, speeds)),
        "cpu_s": statistics.median(j.cpu_s * v for j, v in zip(jobs, speeds)),
        "setup_s": raw["setup_s"] * run_speed,
        "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
    }
    return jobs, failed, metrics


def traced(workload: str, seed: int, refs: dict):
    argv = WORKLOADS[workload].argv(seed)
    plain = run_job(argv)
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"{workload}-seed{seed}.spans"
    tr_job = run_child([sys.executable, str(BENCH_DIR / "child.py"), "traced", str(dump)],
                       argv)
    tr = tracing.load(dump)
    if tr.header["missing"]:
        print("trace targets not found: " + ", ".join(tr.header["missing"]))
    metrics = tracing.layer_metrics(tr)
    metrics["trace.overhead_s"] = tr_job.wall_s - plain.wall_s
    print(f"untraced {plain.wall_s:.3f} s, traced {tr_job.wall_s:.3f} s, "
          f"{tr.header['spans']} spans written to {dump.relative_to(ROOT)}")
    jobs = [plain, tr_job]
    return jobs, sum(not verdict_ok(j, refs) for j in jobs), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so run_child kills and reaps its job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_program()
        pin_to_one_cpu()
        with open(SPEC) as f:
            spec = json.load(f)
        refs = load_references()
        if args.trace:
            jobs, failed, values = traced(args.workload, args.seed, refs)
            wanted = spec["per_layer"]
        else:
            jobs, failed, values = end_to_end(args.workload, args.seed, args.seconds, refs)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{failed} failed, fail_ratio {failed / len(jobs)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
