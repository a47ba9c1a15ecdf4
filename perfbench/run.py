#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds the
library, the fleet worker and the benchmark under .bench_build/perfbench
(Release, from source); later runs rebuild only what changed.  Build output
goes to standard error.  Standard output is the benchmark's own, and its
last line is the result JSON (keys correct, attempted, failed, metrics).
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold_count", "warm_sample", "fleet_batch")
# One run must end well inside three minutes; set-up and the replay come
# on top of --seconds (once, or twice with --trace 1).
RUN_TIMEOUT_S = 170


def source_digest():
    """Identifies the measured sources when the checkout has no git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "service" / "sampling_server.hpp").is_file():
        print("run.py: library sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-digest", source_digest()]
    # Its own process group, so a timeout also takes down the fleet workers
    # the benchmark spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        sys.stderr.write(stdout)
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if (proc.returncode != 0 or not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(stdout)
        print("run.py: benchmark failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
