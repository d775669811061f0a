#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds the `perfbench` target
(perfbench/CMakeLists.txt, which builds the paintplace library from the
checkout's sources) into the directory named by CARGO_TARGET_DIR, default
`.bench_build`, then runs it with the same arguments. The benchmark's last
stdout line is its JSON result; build output and progress go to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(root: str, build_dir: str) -> bool:
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    for attempt in range(2):
        if attempt == 1:
            # A build directory configured for another checkout cannot be
            # reused: start it over once.
            shutil.rmtree(build_dir, ignore_errors=True)
        ok = (subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
              and subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode == 0)
        if ok:
            return True
        if not os.path.isdir(build_dir):
            return False
    return False


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
