#!/usr/bin/env python3
"""Build and run the BoLT benchmark.

    python3 perfbench/run.py --workload <ingest|durable_mixed|read_scan> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (a Cargo
workspace of its own with path dependencies on `crates/`) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
Build output goes to standard error; the benchmark's standard output, whose
last line is the JSON result, passes through unchanged. Exits non-zero,
without a result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: engine sources (crates/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print(f"perfbench: build failed with exit code {built.returncode}", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    try:
        ran = subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
