#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload star_join --seed 1 --seconds 20 --trace 0

The C++ program (perfbench.cc) is built from the engine sources under src/
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run pays for the build, later runs reuse it. Build output goes to stderr, so
the last line of stdout is the program's JSON result. Traced runs
(--trace 1) also write their spans under <build dir>/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("star_join", "serve_mixed", "ingest")
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    build(src_dir, build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: benchmark program exceeded %d s" % RUN_TIMEOUT_S)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: benchmark program exited with %d" % proc.returncode)
    result = json.loads(lines[-1])  # raises (exit 1) on a malformed result
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
