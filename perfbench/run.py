#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset, then runs it with the given arguments. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero without a result if the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        ran = subprocess.run([exe, *sys.argv[1:]], cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
