#!/usr/bin/env python3
"""Build and run the DeltaPath pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hooks-compress --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload hooks-compress --make-pool 32

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments. The last
line of standard output is the benchmark's summary object. Exits non-zero,
without a summary, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_COMMIT"] = command_output(["git", "-C", HERE, "rev-parse", "HEAD"]) or "unknown"
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(HERE, "out")]
    untimed = "--self-test" in args or "--make-pool" in args
    timeout = None if untimed else RUN_TIMEOUT_S
    try:
        run = subprocess.run([binary] + args, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
