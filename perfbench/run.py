#!/usr/bin/env python3
"""Builds the benchmark of record from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lubm-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles the rdfref libraries from src/. It is configured and built in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root); build output goes to stderr so that the last line of
stdout is the result object the benchmark prints. Traced runs write their
spans to traces/ in the same build directory.

--self-test builds the benchmark's own tests (GoogleTest) in a separate
directory and runs them with ctest.
"""

import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir(name):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, name)


def cmake_build(build, target, extra_config=()):
    """Configures (once) and builds `target`; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: rdfref sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        config = ["cmake", "-S", HERE, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release", *extra_config]
        if shutil.which("ninja") is not None:
            config += ["-G", "Ninja"]
        if subprocess.run(config, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", build, "--target", target,
                           "-j", jobs], stdout=sys.stderr).returncode == 0


def option(args, name):
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main(args):
    if args == ["--self-test"]:
        build = build_dir("perfbench-tests")
        if not cmake_build(build, "all", ["-DPERFBENCH_TESTS=ON"]):
            return 2
        return subprocess.run(["ctest", "--output-on-failure"], cwd=build,
                              stdout=sys.stderr).returncode

    build = build_dir("perfbench")
    if not cmake_build(build, "perfbench"):
        return 2
    command = [os.path.join(build, "perfbench"), *args]
    if option(args, "--trace") == "1":
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.tsv" % (option(args, "--workload"),
                                  option(args, "--seed"))
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
        command += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
