#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload facility_mix --seed 42 --seconds 45 --trace 0

Workloads: facility_mix and decide_open_loop (the ones BENCHMARK.json lists),
and chain_sweep (see README.md).
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root, always as a Release build.  Build output goes to
standard error; the benchmark's own output, whose last line is the JSON
result, goes to standard output.  The exit code is the benchmark's: 0 when
every output matched its reference.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain_sweep", "facility_mix", "decide_open_loop")


def build(build_dir):
    """Configure (once) and build; returns the perfbench binary's path."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def git_revision():
    """HEAD's sha with a -dirty suffix, or 'none' outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "none"
    return sha + ("-dirty" if status.strip() else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work"),
               "--reference-dir", os.path.join(HERE, "reference"),
               "--git", git_revision()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
