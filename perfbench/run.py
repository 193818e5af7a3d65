#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload ring_event|udp_state|sim_cluster \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the
perfbench project (perfbench/CMakeLists.txt over ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the binary, whose last stdout line is the JSON result. Build output goes
to a log file next to the build tree; its tail is copied to stderr if
the build fails. Exit status: the binary's, or 2 if the build fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode
            except OSError as e:
                print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
                return None
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ring_event", "udp_state", "sim_cluster"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 2
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--e21", os.path.join(ROOT, "BENCH_E21.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
