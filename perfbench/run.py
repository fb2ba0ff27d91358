#!/usr/bin/env python3
"""Builds the ITDOS benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), relative to
the current directory; the first call configures and compiles (about a
minute on four cores), later calls only check that it is up to date. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's (non-zero when a check failed or
the sources are missing).
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree, should two runs start together.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: the ITDOS sources (src/) are not next to this directory",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.call([os.path.join(build_dir, "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
