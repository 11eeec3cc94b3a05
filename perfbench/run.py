#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The release build goes to $CARGO_TARGET_DIR (default .bench_build);
journals, daemon data and span files go to .bench_run. The last line of
standard output is the benchmark's JSON result; everything else goes to
standard error. The exit code is the benchmark's, or the build's when the
build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=root,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:],
         "--data-dir", os.path.join(root, ".bench_run"),
         "--golden", os.path.join(here, "golden.txt")],
        env=env, cwd=root,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
