"""Child processes of the benchmark, each started fresh by run.py.

    child.py setup <workload> <seed>
        Import thinlie and build the workload's field, descriptor and (for
        switched cases) closed basis; print the seconds that took as JSON.

    child.py calibrate <workload>
        For each line read from stdin, run the workload's host-speed kernel
        of calibrate.py once and print its seconds on a line; stop at end
        of input.  A child of its own, so that the kernel's memory does not
        count in the benchmark process's peak (see README).

    child.py traced <dump path> <thinlie argv...>
        Install the tracer, call thinlie.cli.main(argv) in this process,
        write the spans to the dump path and exit with main's exit code.
"""

import json
import sys
import time


def setup(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    wl.setup_of(wl.variant(seed, 0))()
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


def calibrate(workload: str) -> int:
    from calibrate import sample
    from workloads import WORKLOADS
    side = WORKLOADS[workload].memo_side
    for _ in sys.stdin:
        print(repr(sample(side)), flush=True)
    return 0


def traced(dump_path: str, argv: list) -> int:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    import thinlie.cli
    t0 = time.perf_counter()
    try:
        code = thinlie.cli.main(argv)
    finally:
        job_s = time.perf_counter() - t0
        sys.stdout.flush()
        tracer.dump(dump_path, job_s=job_s)
    return code


def main(args: list) -> int:
    if len(args) == 3 and args[0] == "setup":
        return setup(args[1], int(args[2]))
    if len(args) == 2 and args[0] == "calibrate":
        return calibrate(args[1])
    if len(args) >= 2 and args[0] == "traced":
        return traced(args[1], args[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
