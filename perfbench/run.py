#!/usr/bin/env python3
"""Repository benchmark: build, generate seeded inputs, measure, report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan|batch --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/ (the jsonski libraries
plus the `perfbench` program) in Release mode under .bench_build/
(or $CARGO_TARGET_DIR).  Each call then generates the workload's inputs
and their reference outputs from the seed in a separate process, runs
the measurement, removes the inputs, and passes the program's output
through: the last line of stdout is the result object.  See NOTES.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
PREPARE_TIMEOUT_S = 45
RUN_GRACE_S = 90  # set-up, warm-up and traced layer rows beyond --seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["scan", "batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        exe = build(build_root)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    data = os.path.join(build_root, "data",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(build_root, "traces")
    os.makedirs(data, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", data]
    try:
        subprocess.run([exe, "prepare", *common],
                       check=True, stdout=sys.stderr,
                       timeout=PREPARE_TIMEOUT_S)
        cmd = [exe, "run", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.spans.jsonl")]
        # The program prints the result object last; pass stdout through.
        res = subprocess.run(cmd, timeout=args.seconds + RUN_GRACE_S)
        return res.returncode
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e}")
        return 1
    except subprocess.CalledProcessError as e:
        log(f"input preparation failed: {e}")
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
