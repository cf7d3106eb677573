#!/usr/bin/env python3
"""Builds and runs the s4tf-cpp wall-clock benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload resnet_lazy --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload mlp_serve --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the s4tf libraries from
src/ plus the benchmark binary) under .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("resnet_lazy", "mlp_dp_eager", "mlp_serve")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        # A configure that failed part way leaves a cache behind; start clean.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def git_describe():
    """`git describe` of the checkout, or "unknown" outside a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    text = out.stdout.strip()
    return text if out.returncode == 0 and text else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        command = [binary, "--selftest", "--seed", str(args.seed)]
    else:
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--git-describe", git_describe()]
    sys.stdout.flush()
    try:
        # The child inherits stdout, so its last line stays the last line.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
