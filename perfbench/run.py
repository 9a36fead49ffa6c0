#!/usr/bin/env python3
"""Builds and runs the dCUDA simulator benchmark from the repository root.

    python3 perfbench/run.py --workload stencil|overlap|particles \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The simulator is compiled from ../src into .bench_build (RelWithDebInfo).
The last line of standard output is the JSON result of the run; the build
log goes to standard error. With --trace 1 the spans are written as a
Chrome trace to .bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["stencil", "overlap", "particles"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the arithmetic tests and a smoke run of every workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        exe = build("perfbench_selftest" if args.selftest else "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # No ambient DCUDA_* knob may change a workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCUDA_")}
    if args.selftest:
        cmd = [exe]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.exit(subprocess.run(cmd, env=env, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
