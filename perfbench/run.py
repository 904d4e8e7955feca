#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark pass.

Run from the repository root:

    python3 perfbench/run.py --workload dev --seed 1 --seconds 45 --trace 0

--workload picks the seed stream (dev or holdout); every pass runs all four
workloads (tbl4_sweep, decide_gpu, alertd_churn, dispatch_fine).  --trace 1 reports
the per-layer metrics instead of the end-to-end ones.  Extra flags (--smoke,
--expect-digest WORKLOAD:HEX) go to the perfbench binary unchanged.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; build logs go to stderr.  The last stdout line is the JSON result.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def cmake_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "cmake")


def build():
    """Configures (once) and builds perfbench + sweep_shard; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        raise RuntimeError(f"no repository sources next to {HERE}")
    out = cmake_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "sweep_shard", "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return out


def binaries(out):
    return os.path.join(out, "perfbench"), os.path.join(out, "alert", "sweep_shard")


def run(args, extra):
    out = build()
    perfbench, sweep_shard = binaries(out)
    command = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--worker-bin", sweep_shard, "--work-dir", os.path.join(out, "work")] + extra
    # Own process group, so a timeout also stops the dispatch worker processes.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["dev", "holdout"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = parser.parse_known_args()
    try:
        return run(args, extra)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"failed: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
