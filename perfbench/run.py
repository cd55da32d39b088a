#!/usr/bin/env python3
"""Build and run the rcsafe benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) and the repository's
`rc_serve` binary in release mode, into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Exits non-zero, without a
result, when either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "rc-serve", "--bin", "rc_serve"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "rc_serve")
    work_dir = os.path.join(target, "perfbench")
    cmd = [exe, *sys.argv[1:], "--server-bin", server, "--work-dir", work_dir]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
