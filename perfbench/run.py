#!/usr/bin/env python3
"""End-to-end benchmark of the NOVA encoding service.

Run from the root of a source checkout:

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload small_dup --seed 3 --seconds 20
    python3 perfbench/run.py --workload mid_sweep --trace 1
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the library sources it compiles) into
.bench_build/perfbench, then runs the benchmark binary. With --workload
the last line of stdout is the JSON result; without it every workload
runs in turn. See perfbench/BENCHMARK.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_suite", "mid_sweep", "small_dup"]


def build(out):
    """Configures and builds the benchmark; returns False on failure."""
    if not (ROOT / "src").is_dir():
        print(f"perfbench: no library sources at {ROOT / 'src'}",
              file=sys.stderr)
        return False
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("perfbench: build failed:\n" + "\n".join(tail),
                      file=sys.stderr)
                return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run the benchmark's own tests and exit")
    args = p.parse_args()

    out = ROOT / ".bench_build" / "perfbench"
    if not build(out):
        return 1
    work = str(out.parent / "perfbench-work")
    if args.self_test:
        return subprocess.run([str(out / "perfbench_selftest"),
                               str(out.parent / "perfbench-selftest")],
                              cwd=ROOT).returncode

    rc = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        cmd = [str(out / "perfbench"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work,
               "--trace-dir", str(out.parent / "perfbench-trace")]
        sys.stdout.flush()
        rc = max(rc, subprocess.run(cmd, cwd=ROOT).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
