"""Freeze the reference verdicts every benchmark job is checked against.

Runs each variant of each workload once, untraced, and writes its exit code
and verdict digest to references.json.  Run it only on a commit whose
verdicts are trusted; the committed file was frozen on the commit that
added the benchmark:

    python3 perfbench/freeze.py
"""

import json
import sys

from job import REFERENCES, job_key, require_program, run_job, verdict_digest, verdict_lines
from workloads import WORKLOADS


def main() -> int:
    require_program()
    refs = {}
    for wl in WORKLOADS.values():
        for argv in wl.all_argvs():
            res = run_job(argv)
            refs[job_key(argv)] = {
                "exit_code": res.exit_code,
                "digest": verdict_digest(res.stdout),
                "verdict_lines": len(verdict_lines(res.stdout)),
            }
            print(f"{wl.name}: {job_key(argv)} -> exit {res.exit_code}, "
                  f"{res.wall_s:.2f} s", file=sys.stderr)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
