#!/usr/bin/env python3
"""Builds the repository benchmark from the checkout's sources and runs it.

Usage (from the repository root):
  python3 perfbench/run.py --workload prepared_olap --seed 1 --seconds 20 --trace 0

Every argument is passed on to the perfbench binary (see perfbench/README.md).
The build goes to perfbench/ under $CARGO_TARGET_DIR, or under .bench_build
when that is unset; a traced run writes its spans to .bench_out/. The last stdout line is the
result JSON; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def commit():
    # Only ask git when the checkout is itself a repository, so that git
    # never searches the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "n/a"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "n/a"
    except (OSError, subprocess.CalledProcessError):
        return "n/a"


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        log("the engine sources (src/) are not in this checkout")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2
    ids = argparse.ArgumentParser(add_help=False)
    ids.add_argument("--workload", default="")
    ids.add_argument("--seed", default="")
    known, _ = ids.parse_known_args(argv)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-%s.json" % (known.workload,
                                                         known.seed))
    args = list(argv) + ["--spans", spans]
    return subprocess.run([binary] + args + ["--commit", commit()]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
