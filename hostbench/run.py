#!/usr/bin/env python3
"""Build and run the simulator host-cost benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds, in release mode and offline, this directory's `hostbench` package
and the repository's `cni-run` into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs `hostbench` with the
same arguments. The last line of its standard output is the JSON result.
See NOTES.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [os.path.join(HERE, "Cargo.toml")],
        cargo + [os.path.join(ROOT, "Cargo.toml"), "-p", "cni-apps", "--bin", "cni-run"],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the benchmark's.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("hostbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "hostbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
